// encodeForClient applies a linear-gain compensation inside the encoder's
// colour conversion (core::compensationTables -> media::encodeClip's
// per-frame tables) instead of building the compensated clip.  These tests
// pin that the fused path is the two-stage pipeline it replaces, byte for
// byte, at every dispatch level: encodeClip(compensateClip(...)) for a
// backlit LCD, encodeClip of the original for an emissive panel.  Tracks
// that downscale or apply tone curves take the two-stage path itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <optional>
#include <vector>

#include "core/annotate.h"
#include "display/device.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "media/kernels/kernels.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

using media::kernels::Level;

ClientCapabilities ipaqCaps(std::size_t quality) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

/// `frames` frames of a paper clip at width x height.
media::VideoClip clipAt(int width, int height, std::size_t frames) {
  media::VideoClip clip = media::generatePaperClip(
      media::PaperClip::kReturnOfTheKing, 0.07, width, height);
  clip.frames.resize(std::min(clip.frames.size(), frames));
  return clip;
}

/// A linear-gain track over `frameCount` frames whose scenes alternate
/// between full backlight (gain 1: no table) and dimmed levels (gain > 1),
/// with a one-frame scene at each end of the clip and cuts inside it.
core::AnnotationTrack linearTrack(const media::VideoClip& clip) {
  const auto n = static_cast<std::uint32_t>(clip.frames.size());
  core::AnnotationTrack track;
  track.clipName = clip.name;
  track.fps = clip.fps;
  track.frameCount = n;
  track.qualityLevels = {0.0, 0.1, 0.2};
  const std::uint32_t cuts[] = {0, 1, 4, n / 2, n - 1, n};
  const std::uint8_t safe[][3] = {
      {150, 120, 90}, {255, 255, 255}, {200, 160, 60}, {255, 255, 255},
      {110, 100, 70}};
  for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
    core::SceneAnnotation scene;
    scene.span = {cuts[s], cuts[s + 1] - cuts[s]};
    scene.safeLuma.assign(std::begin(safe[s]), std::end(safe[s]));
    track.scenes.push_back(scene);
  }
  return track;
}

/// The pipeline encodeForClient fuses: compensate, then encode.
std::vector<std::uint8_t> twoStage(const media::VideoClip& clip,
                                   const core::AnnotationTrack& track,
                                   const ClientCapabilities& caps,
                                   const media::CodecConfig& cfg) {
  if (caps.technology != DisplayTechnology::kBacklitLcd) {
    return media::serializeClip(media::encodeClip(clip, cfg));
  }
  return media::serializeClip(media::encodeClip(
      core::compensateClip(clip, track, caps.qualityIndex,
                           deviceFromCapabilities(caps),
                           caps.minBacklightLevel),
      cfg));
}

void expectFusedEqualsTwoStage(const media::VideoClip& clip,
                               const core::AnnotationTrack& track,
                               const ClientCapabilities& caps) {
  for (const media::CodecConfig cfg :
       {media::CodecConfig{}, media::CodecConfig{.quality = 95,
                                                 .gopLength = 1}}) {
    const std::vector<std::uint8_t> want = twoStage(clip, track, caps, cfg);
    for (const Level level : media::kernels::availableLevels()) {
      const media::kernels::ScopedLevel scoped(level);
      EXPECT_EQ(
          media::serializeClip(encodeForClient(clip, track, caps, cfg)),
          want)
          << media::kernels::levelName(level) << " " << clip.width() << "x"
          << clip.height() << " q" << caps.qualityIndex << " quality "
          << cfg.quality;
    }
  }
}

struct Size {
  int width;
  int height;
  std::size_t frames;
};

// 44x30 has partial blocks; 160x120 is the live proxy's size.
constexpr Size kSizes[] = {{32, 24, 20}, {44, 30, 20}, {160, 120, 12}};

TEST(FusedCompensation, LinearGainIsTheTwoStagePipeline) {
  for (const Size& size : kSizes) {
    const media::VideoClip clip =
        clipAt(size.width, size.height, size.frames);
    const core::AnnotationTrack track = linearTrack(clip);
    const display::DeviceModel device = deviceFromCapabilities(ipaqCaps(0));
    for (std::size_t q = 0; q < track.qualityLevels.size(); ++q) {
      // The fused path is taken, and its frames mix tables and none.
      const std::optional<core::CompensationTables> tables =
          core::compensationTables(clip, track, q, device);
      ASSERT_TRUE(tables.has_value());
      ASSERT_EQ(tables->frames.size(), clip.frames.size());
      EXPECT_NE(tables->frames.front(), nullptr);
      EXPECT_NE(tables->frames.back(), nullptr);
      EXPECT_EQ(tables->frames[1], nullptr);
      EXPECT_EQ(tables->scenes.size(), 3u);
      expectFusedEqualsTwoStage(clip, track, ipaqCaps(q));
    }
  }
}

TEST(FusedCompensation, AnnotatedLinearTrackIsTheTwoStagePipeline) {
  for (const Size& size : kSizes) {
    const media::VideoClip clip =
        clipAt(size.width, size.height, size.frames);
    const core::AnnotationTrack track = core::annotateClip(clip);
    expectFusedEqualsTwoStage(clip, track, ipaqCaps(2));
  }
}

TEST(FusedCompensation, CurvesAndDownscalingFallBack) {
  for (const compensate::BackendKind kind :
       {compensate::BackendKind::kHebs,
        compensate::BackendKind::kSpatialScaling}) {
    core::AnnotatorConfig cfg;
    cfg.backend.kind = kind;
    for (const Size& size : kSizes) {
      const media::VideoClip clip =
          clipAt(size.width, size.height, size.frames);
      const core::AnnotationTrack track = core::annotateClip(clip, cfg);
      EXPECT_FALSE(core::compensationTables(clip, track, 2,
                                            deviceFromCapabilities(
                                                ipaqCaps(2)))
                       .has_value())
          << compensate::backendName(kind);
      expectFusedEqualsTwoStage(clip, track, ipaqCaps(2));
    }
  }
}

TEST(FusedCompensation, EmissivePanelGetsTheOriginalPixels) {
  for (const Size& size : kSizes) {
    const media::VideoClip clip =
        clipAt(size.width, size.height, size.frames);
    ClientCapabilities caps = ipaqCaps(2);
    caps.technology = DisplayTechnology::kEmissive;
    expectFusedEqualsTwoStage(clip, linearTrack(clip), caps);
  }
}

TEST(FusedCompensation, TablesCheckArgumentsAsCompensateClipDoes) {
  const media::VideoClip clip = clipAt(32, 24, 10);
  const core::AnnotationTrack track = linearTrack(clip);
  const display::DeviceModel device = deviceFromCapabilities(ipaqCaps(0));
  EXPECT_THROW((void)core::compensationTables(clip, track, 3, device),
               std::out_of_range);
  media::VideoClip shorter = clip;
  shorter.frames.pop_back();
  EXPECT_THROW((void)core::compensationTables(shorter, track, 0, device),
               std::invalid_argument);
  const media::ChannelTable* one = nullptr;
  EXPECT_THROW((void)media::encodeClip(clip, {}, std::span(&one, 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace anno::stream
