#include "stream/mux.h"

#include <gtest/gtest.h>

#include "core/anno_codec.h"
#include "core/annotate.h"
#include "media/clipgen.h"
#include "media/codec.h"

namespace anno::stream {
namespace {

struct Fixture {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kOfficeXp, 0.06, 48, 36);
  media::EncodedClip encoded =
      media::encodeClip(clip, {.quality = 70, .gopLength = 1});
  core::AnnotationTrack track = core::annotateClip(clip);
};

TEST(Mux, RoundtripWithAnnotations) {
  Fixture f;
  const auto bytes = mux(f.encoded, &f.track);
  const DemuxedStream d = demux(bytes);
  EXPECT_EQ(d.video.name, f.encoded.name);
  EXPECT_EQ(d.video.frames.size(), f.encoded.frames.size());
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_EQ(*d.annotations, f.track);
}

TEST(Mux, RoundtripWithComplexityTrack) {
  Fixture f;
  const power::ComplexityTrack complexity =
      power::ComplexityTrack::fromEncodedClip(f.encoded);
  const auto bytes = mux(f.encoded, &f.track, &complexity);
  const DemuxedStream d = demux(bytes);
  ASSERT_TRUE(d.complexity.has_value());
  ASSERT_EQ(d.complexity->frameMegacycles.size(),
            complexity.frameMegacycles.size());
  for (std::size_t i = 0; i < complexity.frameMegacycles.size(); ++i) {
    EXPECT_NEAR(d.complexity->frameMegacycles[i],
                complexity.frameMegacycles[i], 0.01);
  }
}

TEST(Mux, ComplexityAbsentWhenNotMuxed) {
  Fixture f;
  const DemuxedStream d = demux(mux(f.encoded, &f.track));
  EXPECT_FALSE(d.complexity.has_value());
}

TEST(Mux, RoundtripWithoutAnnotations) {
  Fixture f;
  const auto bytes = mux(f.encoded, nullptr);
  const DemuxedStream d = demux(bytes);
  EXPECT_FALSE(d.annotations.has_value());
  EXPECT_EQ(d.video.frames.size(), f.encoded.frames.size());
}

TEST(Mux, BadMagicThrows) {
  std::vector<std::uint8_t> junk = {9, 9, 9, 9, 9};
  EXPECT_THROW((void)demux(junk), std::runtime_error);
}

TEST(Mux, MissingVideoSectionThrows) {
  // A container with only an annotation section.
  Fixture f;
  auto full = mux(f.encoded, &f.track);
  // Build manually: magic + annotation section only.
  const auto annoBytes = core::encodeTrack(f.track);
  std::vector<std::uint8_t> bytes = {0x30, 0x58, 0x55, 0x4D};  // "MUX0" LE
  bytes.push_back(2);  // annotation section id
  // varint length (annotation tracks here are < 2^14)
  std::size_t len = annoBytes.size();
  while (len >= 0x80) {
    bytes.push_back(static_cast<std::uint8_t>(len) | 0x80);
    len >>= 7;
  }
  bytes.push_back(static_cast<std::uint8_t>(len));
  bytes.insert(bytes.end(), annoBytes.begin(), annoBytes.end());
  EXPECT_THROW((void)demux(bytes), std::runtime_error);
}

TEST(Mux, UnknownSectionSkipped) {
  Fixture f;
  auto bytes = mux(f.encoded, &f.track);
  // Append an unknown section (id 99, 3 payload bytes).
  bytes.push_back(99);
  bytes.push_back(3);
  bytes.insert(bytes.end(), {1, 2, 3});
  const DemuxedStream d = demux(bytes);
  EXPECT_TRUE(d.annotations.has_value());
}

TEST(Mux, TruncationThrows) {
  Fixture f;
  auto bytes = mux(f.encoded, &f.track);
  bytes.resize(bytes.size() - 10);
  EXPECT_ANY_THROW((void)demux(bytes));
}

TEST(Mux, AnnotationOverheadTiny) {
  // The paper's headline overhead claim: annotations are a vanishing
  // fraction of the stream.  On this 48x36 intra-only fixture; served
  // (scene-cut GOP) streams are held to it by bench_annotation_overhead.
  Fixture f;
  const std::size_t annotationBytes = core::encodeTrack(f.track).size();
  const std::size_t totalBytes = mux(f.encoded, &f.track).size();
  EXPECT_GT(annotationBytes, 0u);
  EXPECT_GT(totalBytes, annotationBytes);
  EXPECT_LT(static_cast<double>(annotationBytes) /
                static_cast<double>(totalBytes),
            0.01);
}

}  // namespace
}  // namespace anno::stream
