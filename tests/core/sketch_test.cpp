#include "core/sketch.h"

#include <gtest/gtest.h>

#include "core/annotate.h"
#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/rng.h"

namespace anno::core {
namespace {

media::Histogram randomHist(std::uint64_t seed, int n = 4000) {
  media::SplitMix64 rng(seed);
  media::Histogram h;
  for (int i = 0; i < n; ++i) {
    h.add(static_cast<std::uint8_t>(rng.below(256)));
  }
  return h;
}

TEST(Sketch, BinsSumToRoughly255) {
  const SceneSketch s = sketchHistogram(randomHist(1));
  int sum = 0;
  for (std::uint8_t b : s.bins) sum += b;
  EXPECT_NEAR(sum, 255, 8);  // rounding of 16 bins
}

TEST(Sketch, ExpansionApproximatesOriginal) {
  // The sketch->expand round trip must stay within one bin width (16) of
  // the original distribution in EMD.
  for (std::uint64_t seed : {2ull, 3ull, 4ull}) {
    const media::Histogram original = randomHist(seed);
    const media::Histogram expanded =
        expandSketch(sketchHistogram(original));
    EXPECT_LT(media::Histogram::earthMovers(original, expanded), 16.0)
        << "seed " << seed;
  }
}

TEST(Sketch, ConcentratedMassStaysInItsBin) {
  media::Histogram h;
  h.add(40, 900);   // bin 2
  h.add(250, 100);  // bin 15
  const SceneSketch s = sketchHistogram(h);
  EXPECT_NEAR(s.bins[2], 230, 2);   // 90% of 255
  EXPECT_NEAR(s.bins[15], 26, 2);   // 10% of 255
  for (int b = 0; b < 16; ++b) {
    if (b != 2 && b != 15) {
      EXPECT_EQ(s.bins[b], 0) << "bin " << b;
    }
  }
}

TEST(Sketch, EmptyHistogramThrows) {
  media::Histogram empty;
  EXPECT_THROW((void)sketchHistogram(empty), std::invalid_argument);
}

TEST(SketchTrack, EncodeDecodeRoundtrip) {
  media::SplitMix64 rng(7);
  SketchTrack track;
  for (int s = 0; s < 25; ++s) {
    track.scenes.push_back(sketchHistogram(randomHist(rng.next())));
  }
  EXPECT_EQ(SketchTrack::decode(track.encode()), track);
}

TEST(SketchTrack, CompactForSimilarScenes) {
  // Identical scenes: bin-major RLE collapses each bin row to one run.
  SketchTrack track;
  const SceneSketch s = sketchHistogram(randomHist(9));
  track.scenes.assign(100, s);
  // 16 runs of 100 -> tens of bytes, far below the raw 1600.
  EXPECT_LT(track.encode().size(), 120u);
}

TEST(SketchTrack, DecodeRejectsGarbage) {
  std::vector<std::uint8_t> junk = {200, 1, 2, 3};
  EXPECT_ANY_THROW((void)SketchTrack::decode(junk));
}

TEST(SketchTrack, DecodeRejectsHugeCountsBeforeAllocating) {
  // Both nasties fit in under 32 bytes and must throw before any large
  // allocation (bad_alloc, or an ASan abort, would mean they did not).
  media::ByteWriter overflow;
  overflow.varint(std::uint64_t{1} << 60);  // scenes * 16 wraps 64 bits
  overflow.varint(2);
  overflow.varint(16);
  overflow.u8(7);
  ASSERT_LT(overflow.size(), 32u);
  EXPECT_THROW((void)SketchTrack::decode(overflow.data()), std::runtime_error);

  media::ByteWriter balloon;
  balloon.varint(1);  // one scene: 16 bytes expected
  media::ByteWriter rle;
  rle.varint(std::uint64_t{1} << 32);  // ... but a 4 GiB run
  rle.u8(9);
  balloon.varint(rle.size());
  balloon.bytes(rle.data());
  ASSERT_LT(balloon.size(), 32u);
  EXPECT_THROW((void)SketchTrack::decode(balloon.data()), std::runtime_error);
}

TEST(SketchTrack, BuildFromClipMatchesScenes) {
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kIRobot, 0.04, 48, 36);
  const AnnotationTrack track = annotateClip(clip);
  const auto stats = media::profileClip(clip);
  const SketchTrack sketches = buildSketchTrack(track, stats);
  ASSERT_EQ(sketches.scenes.size(), track.scenes.size());
  // The sketch's occupied top bin must agree with the annotated ceiling:
  // the highest non-zero sketch bin should contain (or neighbour) the
  // scene's q=0 safe luminance.
  for (std::size_t s = 0; s < sketches.scenes.size(); ++s) {
    int topBin = -1;
    for (int b = 15; b >= 0; --b) {
      if (sketches.scenes[s].bins[b] > 0) {
        topBin = b;
        break;
      }
    }
    ASSERT_GE(topBin, 0);
    const int ceilingBin = track.scenes[s].safeLuma[0] / 16;
    EXPECT_NEAR(topBin, ceilingBin, 1) << "scene " << s;
  }
  std::vector<media::FrameStats> tooFew(3);
  EXPECT_THROW((void)buildSketchTrack(track, tooFew), std::invalid_argument);
}

}  // namespace
}  // namespace anno::core
