// Seeded mutation corpus over the annotation codec: no injector output may
// crash or hang either decoder.  The corpus seed and size are fixed in
// CMake (ANNO_FAULT_CORPUS_SEED / ANNO_FAULT_CORPUS_SIZE) so every run --
// including sanitizer configs -- exercises the exact same byte streams.
#include <gtest/gtest.h>

#include <exception>

#include "core/anno_codec.h"
#include "fault/inject.h"

#ifndef ANNO_FAULT_CORPUS_SEED
#define ANNO_FAULT_CORPUS_SEED 0xF4017ULL
#endif
#ifndef ANNO_FAULT_CORPUS_SIZE
#define ANNO_FAULT_CORPUS_SIZE 10000
#endif

namespace anno::core {
namespace {

AnnotationTrack corpusBaseTrack() {
  AnnotationTrack t;
  t.clipName = "corpus_base";
  t.fps = 14.98;
  t.granularity = Granularity::kPerScene;
  t.qualityLevels = {0.0, 0.05, 0.10, 0.20};
  std::uint32_t start = 0;
  for (int i = 0; i < 24; ++i) {
    SceneAnnotation s;
    s.span.firstFrame = start;
    s.span.frameCount = 30 + static_cast<std::uint32_t>((i * 37) % 90);
    start += s.span.frameCount;
    const auto base = static_cast<std::uint8_t>(230 - (i * 11) % 160);
    s.safeLuma = {base,
                  static_cast<std::uint8_t>(base - base / 8),
                  static_cast<std::uint8_t>(base - base / 5),
                  static_cast<std::uint8_t>(base - base / 3)};
    t.scenes.push_back(std::move(s));
  }
  t.frameCount = start;
  return t;
}

struct CorpusStats {
  std::size_t total = 0;
  std::size_t strictAccepted = 0;
  std::size_t strictRejected = 0;
  std::size_t lenientUsable = 0;
};

void runCodecCorpus(const std::vector<std::uint8_t>& base,
                    std::uint64_t masterSeed, CorpusStats* stats) {
  fault::runCorpus(
      base, masterSeed, ANNO_FAULT_CORPUS_SIZE, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        ++stats->total;
        // Strict decode: may throw std::exception, nothing else, and on an
        // untouched buffer must succeed.
        try {
          const AnnotationTrack t = decodeTrack(mutated);
          ++stats->strictAccepted;
          ASSERT_NO_THROW(validateTrack(t));
        } catch (const std::exception&) {
          ++stats->strictRejected;
          ASSERT_FALSE(report.identity())
              << "strict decode rejected an unmutated buffer";
        }
        // Lenient decode: NEVER throws; usable implies valid.
        const LenientDecodeResult lenient = decodeTrackLenient(mutated);
        if (lenient.usable) {
          ++stats->lenientUsable;
          ASSERT_NO_THROW(validateTrack(lenient.track));
        }
        // Strict/lenient agreement on intact input.
        if (report.identity()) {
          ASSERT_TRUE(lenient.usable);
          ASSERT_TRUE(lenient.damage.intact());
          ASSERT_EQ(lenient.track, decodeTrack(mutated));
        }
      });
}

TEST(FaultCorpus, ResilientDecoderSurvivesTenThousandMutations) {
  const auto base = encodeTrack(corpusBaseTrack());
  CorpusStats stats;
  runCodecCorpus(base, ANNO_FAULT_CORPUS_SEED, &stats);
  EXPECT_EQ(stats.total, static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
  // The corpus must actually stress the decoder: most mutants are rejected
  // strictly, yet a meaningful share still decodes leniently (per-chunk CRC
  // localizes the damage instead of condemning the whole track).
  EXPECT_GT(stats.strictRejected, stats.total / 2);
  EXPECT_GT(stats.lenientUsable, stats.total / 20);
  EXPECT_GE(stats.lenientUsable, stats.strictAccepted);
}

TEST(FaultCorpus, PathologicalHeadersCannotBalloonAllocation) {
  // Hand-built nasties that historically trigger huge allocations or spins
  // in naive varint/RLE decoders.  All must return quickly and safely.
  const std::vector<std::vector<std::uint8_t>> nasties = {
      {},                                            // empty
      {0x30, 0x4E, 0x4E, 0x41},                      // bare ANN0 magic
      {0x31, 0x4E, 0x4E, 0x41},                      // bare ANN1 magic
      {0x31, 0x4E, 0x4E, 0x41, 0x01},                // magic + version only
      // ANN0 magic + maximal varints (name length ~2^35, frame count, ...).
      {0x30, 0x4E, 0x4E, 0x41, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
      // ANN1 chunk claiming a payload of ~2^35 bytes.
      {0x31, 0x4E, 0x4E, 0x41, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
      // ANN0 with zero scenes but huge RLE run request.
      {0x30, 0x4E, 0x4E, 0x41, 0x00, 0x00, 0x00, 0x0A, 0x01, 0x00, 0xFF,
       0xFF, 0xFF, 0xFF, 0x0F},
  };
  for (const auto& bytes : nasties) {
    EXPECT_ANY_THROW((void)decodeTrack(bytes));
    const LenientDecodeResult lenient = decodeTrackLenient(bytes);
    EXPECT_FALSE(lenient.usable && lenient.damage.intact() &&
                 !lenient.track.scenes.empty())
        << "garbage must not decode to a populated intact track";
  }
}

}  // namespace
}  // namespace anno::core
