#include "core/anno_codec.h"

#include <gtest/gtest.h>

#include "core/annotate.h"
#include "media/clipgen.h"
#include "media/rng.h"

namespace anno::core {
namespace {

AnnotationTrack randomTrack(std::uint64_t seed) {
  media::SplitMix64 rng(seed);
  AnnotationTrack t;
  t.clipName = "clip_" + std::to_string(seed);
  t.fps = 12.0;
  t.granularity =
      rng.uniform() < 0.5 ? Granularity::kPerScene : Granularity::kPerFrame;
  t.qualityLevels = {0.0, 0.05, 0.10, 0.15, 0.20};
  const int nscenes = 1 + static_cast<int>(rng.below(40));
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

class TrackRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(TrackRoundtrip, EncodeDecodeIsIdentity) {
  const AnnotationTrack track = randomTrack(GetParam());
  const auto bytes = encodeTrack(track);
  const AnnotationTrack decoded = decodeTrack(bytes);
  EXPECT_EQ(decoded, track);
}

INSTANTIATE_TEST_SUITE_P(RandomTracks, TrackRoundtrip,
                         ::testing::Range(1, 16));

TEST(AnnoCodec, RealTrackRoundtrip) {
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kShrek2, 0.05, 48, 36);
  const AnnotationTrack track = annotateClip(clip);
  EXPECT_EQ(decodeTrack(encodeTrack(track)), track);
}

TEST(AnnoCodec, OverheadIsHundredsOfBytes) {
  // Paper Sec. 4.3: annotations are "in the order of hundreds of bytes".
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kTheMovie, 0.1, 48, 36);
  const AnnotationTrack track = annotateClip(clip);
  const auto bytes = encodeTrack(track);
  EXPECT_LT(bytes.size(), 1000u) << "scenes: " << track.scenes.size();
  EXPECT_GT(bytes.size(), 20u);
}

TEST(AnnoCodec, RejectsInvalidTrackOnEncode) {
  AnnotationTrack bad;
  EXPECT_THROW((void)encodeTrack(bad), std::invalid_argument);
}

TEST(AnnoCodec, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW((void)decodeTrack(bytes), std::runtime_error);
}

TEST(AnnoCodec, RejectsTruncation) {
  const AnnotationTrack track = randomTrack(3);
  auto bytes = encodeTrack(track);
  for (std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> trunc(bytes.begin(),
                                    bytes.begin() + static_cast<long>(cut));
    EXPECT_ANY_THROW((void)decodeTrack(trunc)) << "cut=" << cut;
  }
}

TEST(AnnoCodec, RejectsCorruptedLumaMatrix) {
  const AnnotationTrack track = randomTrack(4);
  auto bytes = encodeTrack(track);
  // Flip a byte near the end (inside the RLE'd luma matrix): decoding must
  // either throw or produce a track that fails validation -- never UB.
  bytes[bytes.size() - 2] ^= 0xFF;
  try {
    const AnnotationTrack t = decodeTrack(bytes);
    EXPECT_NO_THROW(validateTrack(t));  // if it decoded, it must be valid
  } catch (const std::exception&) {
    SUCCEED();
  }
}

TEST(AnnoCodec, LenientMatchesStrictOnIntactInput) {
  const AnnotationTrack track = randomTrack(6);
  const auto bytes = encodeTrack(track);
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.intact());
  EXPECT_GE(lenient.damage.totalChunks, 2u);  // header + >=1 scene group
  EXPECT_EQ(lenient.damage.damagedChunks, 0u);
  EXPECT_EQ(lenient.damage.damagedFrames, 0u);
  EXPECT_EQ(lenient.track, decodeTrack(bytes));
}

TEST(AnnoCodec, DamageReportLocalizesCorruption) {
  const AnnotationTrack track = randomTrack(9);
  auto bytes = encodeTrack(track);
  bytes[bytes.size() - 3] ^= 0x40;  // inside the last scene-group payload
  EXPECT_THROW((void)decodeTrack(bytes), std::runtime_error);
  const LenientDecodeResult lenient = decodeTrackLenient(bytes);
  ASSERT_TRUE(lenient.usable);
  EXPECT_TRUE(lenient.damage.headerIntact);
  EXPECT_GE(lenient.damage.damagedChunks, 1u);
  EXPECT_LT(lenient.damage.damagedChunks, lenient.damage.totalChunks);
  EXPECT_FALSE(lenient.damage.repairedSpans.empty());
  EXPECT_GT(lenient.damage.damagedFrames, 0u);
  EXPECT_EQ(lenient.track.frameCount, track.frameCount);
  EXPECT_NO_THROW(validateTrack(lenient.track));
}

TEST(AnnoCodec, MeasureEncodingConsistent) {
  const AnnotationTrack track = randomTrack(5);
  const AnnotationSizeReport report = measureEncoding(track);
  EXPECT_EQ(report.encodedBytes, encodeTrack(track).size());
  EXPECT_EQ(report.sceneCount, track.scenes.size());
  EXPECT_EQ(report.rawLumaBytes,
            track.scenes.size() * track.qualityLevels.size());
  EXPECT_EQ(report.headerBytes + report.sceneTableBytes, report.encodedBytes);
}

TEST(AnnoCodec, RleHelpsOnRepetitiveTracks) {
  // A long clip of identical scenes: the luma matrix is constant, so the
  // encoded size should grow far slower than scene count.
  AnnotationTrack t;
  t.clipName = "rep";
  t.fps = 12.0;
  t.qualityLevels = {0.0, 0.05, 0.10, 0.15, 0.20};
  std::uint32_t start = 0;
  for (int i = 0; i < 200; ++i) {
    SceneAnnotation s;
    s.span = SceneSpan{start, 10};
    s.safeLuma = {200, 190, 180, 170, 160};
    start += 10;
    t.scenes.push_back(s);
  }
  t.frameCount = start;
  const AnnotationSizeReport report = measureEncoding(t);
  // 200 scenes x 5 bytes = 1000 raw luma bytes; RLE packs the repeats.
  EXPECT_LT(report.encodedBytes, 600u);
}

}  // namespace
}  // namespace anno::core
