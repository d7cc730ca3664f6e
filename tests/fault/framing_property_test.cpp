// Round-trip and truncation properties of the resilient ANN1 annotation
// framing.
#include <gtest/gtest.h>

#include "core/anno_codec.h"
#include "fault/inject.h"
#include "media/rng.h"

namespace anno::core {
namespace {

AnnotationTrack randomTrack(std::uint64_t seed, int maxScenes = 60) {
  media::SplitMix64 rng(seed);
  AnnotationTrack t;
  t.clipName = "clip_" + std::to_string(seed);
  t.fps = 12.0;
  t.granularity =
      rng.uniform() < 0.5 ? Granularity::kPerScene : Granularity::kPerFrame;
  t.qualityLevels = {0.0, 0.05, 0.10, 0.15, 0.20};
  const int nscenes = 1 + static_cast<int>(rng.below(maxScenes));
  std::uint32_t start = 0;
  for (int i = 0; i < nscenes; ++i) {
    SceneAnnotation s;
    s.span.firstFrame = start;
    s.span.frameCount = 1 + static_cast<std::uint32_t>(rng.below(100));
    start += s.span.frameCount;
    std::uint8_t level = static_cast<std::uint8_t>(rng.between(50, 255));
    for (std::size_t q = 0; q < t.qualityLevels.size(); ++q) {
      s.safeLuma.push_back(level);
      level = static_cast<std::uint8_t>(
          std::max<std::int64_t>(0, level - rng.below(20)));
    }
    t.scenes.push_back(std::move(s));
  }
  t.frameCount = start;
  return t;
}

class FramingProperty : public ::testing::TestWithParam<int> {};

TEST_P(FramingProperty, EncodeInjectIdentityDecodeIsBitIdentical) {
  const AnnotationTrack track = randomTrack(GetParam());
  const auto bytes = encodeTrack(track);
  // Identity injection: an empty plan must leave the buffer bit-identical,
  // and decode must reproduce the track exactly (strict AND lenient).
  const auto untouched = fault::applyPlan(bytes, fault::InjectionPlan{});
  ASSERT_EQ(untouched, bytes);
  EXPECT_EQ(decodeTrack(untouched), track);
  const LenientDecodeResult lenient = decodeTrackLenient(untouched);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.intact());
  EXPECT_EQ(lenient.track, track);
  // Re-encoding the decoded track is also bit-identical (canonical form).
  EXPECT_EQ(encodeTrack(lenient.track), bytes);
}

TEST_P(FramingProperty, EveryTruncationDecodesLenientlyWithoutThrowing) {
  const AnnotationTrack track = randomTrack(GetParam());
  const auto bytes = encodeTrack(track);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    fault::InjectionPlan plan;
    plan.mutations.push_back({fault::MutationKind::kTruncate, k, 0, 0, 0});
    const auto trunc = fault::applyPlan(bytes, plan);
    ASSERT_EQ(trunc.size(), k);
    const LenientDecodeResult lenient = decodeTrackLenient(trunc);
    if (lenient.usable) {
      // Whatever survives must be structurally valid and frame-complete.
      EXPECT_NO_THROW(validateTrack(lenient.track)) << "cut=" << k;
      EXPECT_EQ(lenient.track.frameCount, track.frameCount) << "cut=" << k;
    } else {
      EXPECT_FALSE(lenient.damage.headerIntact) << "cut=" << k;
    }
    // Strict decode must refuse every proper prefix.
    EXPECT_ANY_THROW((void)decodeTrack(trunc)) << "cut=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTracks, FramingProperty,
                         ::testing::Range(1, 13));

AnnotationTrack deterministicTrack(int nscenes) {
  AnnotationTrack t;
  t.clipName = "deterministic";
  t.fps = 12.5;
  t.granularity = Granularity::kPerScene;
  t.qualityLevels = {0.0, 0.10, 0.20};
  std::uint32_t start = 0;
  for (int i = 0; i < nscenes; ++i) {
    SceneAnnotation s;
    s.span.firstFrame = start;
    s.span.frameCount = 20 + static_cast<std::uint32_t>((i * 13) % 50);
    start += s.span.frameCount;
    const auto base = static_cast<std::uint8_t>(240 - (i * 17) % 180);
    s.safeLuma = {base, static_cast<std::uint8_t>(base - base / 6),
                  static_cast<std::uint8_t>(base - base / 4)};
    t.scenes.push_back(std::move(s));
  }
  t.frameCount = start;
  return t;
}

TEST(Framing, DamagedSceneGroupIsRepairedPerSpan) {
  // 48 scenes -> header chunk + 3 scene-group chunks of 16.  Corrupt one
  // byte in the back third of the buffer (inside group 2 or 3): only that
  // neighbourhood's scene-spans may be replaced by full-backlight repair
  // scenes; everything else survives byte-exact.
  const AnnotationTrack track = deterministicTrack(48);
  auto bytes = encodeTrack(track);
  bytes[(bytes.size() * 2) / 3] ^= 0x5A;
  EXPECT_THROW((void)decodeTrack(bytes), std::runtime_error);

  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  ASSERT_TRUE(lenient.damage.headerIntact);
  EXPECT_GE(lenient.damage.damagedChunks, 1u);
  ASSERT_GE(lenient.damage.repairedSpans.size(), 1u);
  EXPECT_NO_THROW(validateTrack(lenient.track));
  EXPECT_EQ(lenient.track.frameCount, track.frameCount);
  EXPECT_GT(lenient.damage.damagedFrames, 0u);
  EXPECT_LT(lenient.damage.damagedFrames, track.frameCount)
      << "damage must stay local: most of the track survives";

  std::uint32_t repairedFrames = 0;
  for (const SceneSpan& span : lenient.damage.repairedSpans) {
    repairedFrames += span.frameCount;
  }
  EXPECT_EQ(lenient.damage.damagedFrames, repairedFrames);

  std::size_t survivors = 0;
  for (const SceneAnnotation& s : lenient.track.scenes) {
    bool isRepair = false;
    for (const SceneSpan& span : lenient.damage.repairedSpans) {
      if (s.span.firstFrame == span.firstFrame &&
          s.span.frameCount == span.frameCount) {
        isRepair = true;
        break;
      }
    }
    if (isRepair) {
      for (const std::uint8_t luma : s.safeLuma) {
        EXPECT_EQ(luma, 255) << "repair scenes must be full backlight";
      }
      continue;
    }
    // Every surviving scene decodes byte-exact from the original track.
    bool found = false;
    for (const SceneAnnotation& orig : track.scenes) {
      if (orig == s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "scene at frame " << s.span.firstFrame;
    ++survivors;
  }
  // The first group (16 scenes) is ahead of the corruption and must be
  // entirely intact.
  EXPECT_GE(survivors, 16u);
}

TEST(Framing, HeaderDamageIsUnusableButSafe) {
  const AnnotationTrack track = randomTrack(3);
  auto bytes = encodeTrack(track);
  bytes[12] ^= 0xFF;  // inside the header chunk payload
  EXPECT_THROW((void)decodeTrack(bytes), std::runtime_error);
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  EXPECT_FALSE(lenient.usable);
  EXPECT_FALSE(lenient.damage.headerIntact);
  EXPECT_GE(lenient.damage.damagedChunks, 1u);
}

TEST(Framing, StrictDecodeRejectsEverySingleByteCorruption) {
  // CRC32 catches any single-byte payload error; framing bytes (magic,
  // version, type, length, stored CRC) are covered too, because corrupting
  // them desyncs or orphans a chunk, which surfaces as damage.  So strict
  // decode must reject EVERY possible 1-byte corruption, exhaustively.
  const AnnotationTrack track = deterministicTrack(20);
  const auto bytes = encodeTrack(track);
  media::SplitMix64 rng(0xC0FFEE);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    auto bad = bytes;
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    EXPECT_ANY_THROW((void)decodeTrack(bad)) << "byte " << pos;
    // And the lenient decoder, if it salvages anything, salvages something
    // valid and frame-complete.
    const LenientDecodeResult lenient = decodeTrackLenient(bad);
    if (lenient.usable) {
      EXPECT_NO_THROW(validateTrack(lenient.track)) << "byte " << pos;
      EXPECT_EQ(lenient.track.frameCount, track.frameCount) << "byte " << pos;
      EXPECT_FALSE(lenient.damage.intact()) << "byte " << pos;
    }
  }
}

}  // namespace
}  // namespace anno::core
