// Seeded mutation corpora over the two optional mux riders: the per-frame
// decode-workload track (power::ComplexityTrack) and the per-scene histogram
// sketches (core::SketchTrack).  demux drops a rider whose decoder throws,
// so the contract is the decoder's: every mutant either throws a
// std::exception or decodes to a track that is sane to consume.
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <stdexcept>
#include <vector>

#include "core/annotate.h"
#include "core/sketch.h"
#include "fault/inject.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "power/dvfs.h"

#ifndef ANNO_FAULT_CORPUS_SEED
#define ANNO_FAULT_CORPUS_SEED 0xF4017ULL
#endif
#ifndef ANNO_FAULT_CORPUS_SIZE
#define ANNO_FAULT_CORPUS_SIZE 10000
#endif

namespace anno {
namespace {

media::VideoClip corpusClip() {
  return media::generatePaperClip(media::PaperClip::kTheMovie, 0.1, 32, 24);
}

TEST(RiderCorpus, ComplexityMutantsThrowOrDecodeSanely) {
  const power::ComplexityTrack track = power::ComplexityTrack::fromEncodedClip(
      media::encodeClip(corpusClip()));
  const std::vector<std::uint8_t> base = track.encode();
  ASSERT_EQ(power::ComplexityTrack::decode(base).frameMegacycles.size(),
            track.frameMegacycles.size());
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  fault::runCorpus(
      base, ANNO_FAULT_CORPUS_SEED ^ 0xC0DEULL, ANNO_FAULT_CORPUS_SIZE, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        power::ComplexityTrack decoded;
        try {
          decoded = power::ComplexityTrack::decode(mutated);
        } catch (const std::exception&) {
          ++rejected;
          ASSERT_FALSE(report.identity()) << "rejected an unmutated track";
          return;
        }
        ++accepted;
        // One delta byte at least per frame, and every workload a finite,
        // non-negative cycle count the DVFS governor can schedule.
        ASSERT_LE(decoded.frameMegacycles.size(), mutated.size());
        for (const double mc : decoded.frameMegacycles) {
          ASSERT_TRUE(std::isfinite(mc));
          ASSERT_GE(mc, 0.0);
        }
      });
  EXPECT_EQ(accepted + rejected,
            static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
  EXPECT_GT(rejected, 0u) << "the corpus must bite";
  EXPECT_GT(accepted, 0u);
}

TEST(RiderCorpus, SketchMutantsThrowOrDecodeSanely) {
  const media::VideoClip clip = corpusClip();
  std::vector<std::vector<media::FrameStats>> stats;
  const std::vector<core::AnnotationTrack> tracks =
      core::annotateClips({&clip, 1}, {}, &stats);
  const core::SketchTrack sketches =
      core::buildSketchTrack(tracks.front(), stats.front());
  ASSERT_GT(sketches.scenes.size(), 1u);
  const std::vector<std::uint8_t> base = sketches.encode();
  ASSERT_EQ(core::SketchTrack::decode(base), sketches);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  fault::runCorpus(
      base, ANNO_FAULT_CORPUS_SEED ^ 0x5CE7ULL, ANNO_FAULT_CORPUS_SIZE, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        core::SketchTrack decoded;
        try {
          decoded = core::SketchTrack::decode(mutated);
        } catch (const std::exception&) {
          ++rejected;
          ASSERT_FALSE(report.identity()) << "rejected an unmutated track";
          return;
        }
        ++accepted;
        // Whatever decodes is a fixed point of the codec.
        ASSERT_EQ(core::SketchTrack::decode(decoded.encode()), decoded);
      });
  EXPECT_EQ(accepted + rejected,
            static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
  EXPECT_GT(rejected, 0u) << "the corpus must bite";
  EXPECT_GT(accepted, 0u);
}

TEST(RiderCorpus, PathologicalHeadersThrow) {
  // One sketch scene whose RLE length is 2^64 - 1: the reader must not let
  // position + length wrap around and hand out a span past the buffer.
  const std::vector<std::uint8_t> sketch = {
      0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
      0x10, 0x07};
  EXPECT_THROW((void)core::SketchTrack::decode(sketch), std::out_of_range);
  // Two workload deltas of INT64_MAX each: the running sum overflows.
  const std::vector<std::uint8_t> complexity = {
      0x02, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  EXPECT_THROW((void)power::ComplexityTrack::decode(complexity),
               std::runtime_error);
}

}  // namespace
}  // namespace anno
