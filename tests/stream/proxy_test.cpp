#include "stream/proxy.h"

#include <gtest/gtest.h>

#include "media/clipgen.h"
#include "stream/mux.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

media::VideoClip testClip() {
  return media::generatePaperClip(media::PaperClip::kIRobot, 0.03, 32, 24);
}

ClientCapabilities ipaqCaps(std::size_t quality = 2) {
  const display::DeviceModel d =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  return ClientCapabilities{d.name, d.transfer, quality};
}

TEST(OnlineAnnotator, MatchesOfflineAnnotator) {
  // The causal annotator must produce exactly the offline scene partition
  // and safe-luma values ("either the proxy or the server node suffices").
  const media::VideoClip clip = testClip();
  const core::AnnotatorConfig cfg;
  const core::AnnotationTrack offline = core::annotateClip(clip, cfg);

  OnlineAnnotator online(cfg);
  std::vector<core::SceneAnnotation> scenes;
  for (const media::Image& f : clip.frames) {
    if (auto s = online.push(media::profileFrame(f))) {
      scenes.push_back(*s);
    }
  }
  if (auto s = online.flush()) scenes.push_back(*s);

  ASSERT_EQ(scenes.size(), offline.scenes.size());
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i], offline.scenes[i]) << "scene " << i;
  }
}

TEST(OnlineAnnotator, PerFrameModeEmitsEveryFrame) {
  core::AnnotatorConfig cfg;
  cfg.granularity = core::Granularity::kPerFrame;
  OnlineAnnotator online(cfg);
  const media::VideoClip clip = testClip();
  std::size_t emitted = 0;
  for (const media::Image& f : clip.frames) {
    if (online.push(media::profileFrame(f))) ++emitted;
  }
  if (online.flush()) ++emitted;
  EXPECT_EQ(emitted, clip.frames.size());
}

TEST(OnlineAnnotator, LatencyBoundForcesCuts) {
  core::AnnotatorConfig cfg;
  OnlineAnnotator bounded(cfg, 10);
  // A long constant scene: unbounded mode would hold it open forever;
  // bounded mode must emit a chunk every 10 frames.
  media::FrameStats stats;
  stats.luminance.maxLuma = 120;
  stats.histogram.add(120, 100);
  std::vector<core::SceneAnnotation> scenes;
  for (int i = 0; i < 35; ++i) {
    if (auto s = bounded.push(stats)) scenes.push_back(*s);
  }
  if (auto s = bounded.flush()) scenes.push_back(*s);
  ASSERT_GE(scenes.size(), 3u);
  for (const core::SceneAnnotation& s : scenes) {
    EXPECT_LE(s.span.frameCount, 10u);
  }
  // Chunks of the same content annotate identically, so the client's
  // schedule merges them: no extra backlight switches from chunking.
  for (std::size_t i = 1; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i].safeLuma, scenes[0].safeLuma);
  }
}

TEST(OnlineAnnotator, LatencyBoundValidation) {
  core::AnnotatorConfig cfg;
  cfg.sceneDetect.minSceneFrames = 8;
  EXPECT_THROW(OnlineAnnotator(cfg, 4), std::invalid_argument);
  EXPECT_NO_THROW(OnlineAnnotator(cfg, 8));
  EXPECT_NO_THROW(OnlineAnnotator(cfg, 0));  // unbounded
}

TEST(OnlineAnnotator, FlushOnEmptyIsNull) {
  OnlineAnnotator online;
  EXPECT_FALSE(online.flush().has_value());
  EXPECT_EQ(online.framesSeen(), 0u);
}

TEST(OnlineAnnotator, ValidationOnEmptyQualityLevels) {
  core::AnnotatorConfig cfg;
  cfg.qualityLevels.clear();
  EXPECT_THROW(OnlineAnnotator{cfg}, std::invalid_argument);
}

TEST(Proxy, TranscodeMatchesServerTrack) {
  // Raw stream -> proxy must reconstruct (up to codec noise in the frame
  // statistics) the same annotation structure the server would compute.
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);

  const auto raw = server.serveRaw(clip.name);
  ProxyNode proxy;
  const auto transcoded = proxy.transcode(raw, ipaqCaps());
  const DemuxedStream d = demux(transcoded);
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_NO_THROW(core::validateTrack(*d.annotations));
  EXPECT_EQ(d.annotations->frameCount, clip.frames.size());

  // The proxy works from decoded (lossy) frames, so safe luma can differ by
  // a few codes, but the scene structure should be very close.
  const core::AnnotationTrack& serverTrack = server.entry(clip.name).track;
  const double ratio =
      static_cast<double>(d.annotations->scenes.size()) /
      static_cast<double>(serverTrack.scenes.size());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Proxy, TranscodedStreamIsCompensated) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto transcoded = proxy.transcode(server.serveRaw(clip.name),
                                          ipaqCaps(2));
  const DemuxedStream d = demux(transcoded);
  const media::VideoClip served = media::decodeClip(d.video);
  // Compensation brightens: total luma mass should increase.
  double servedSum = 0.0, origSum = 0.0;
  for (std::size_t i = 0; i < clip.frames.size(); i += 7) {
    for (const media::Rgb8& p : served.frames[i].pixels()) {
      servedSum += media::luminance(p);
    }
    for (const media::Rgb8& p : clip.frames[i].pixels()) {
      origSum += media::luminance(p);
    }
  }
  EXPECT_GT(servedSum, origSum);
}

TEST(Proxy, ResolutionAdaptationShrinksStreamAndFrames) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  const auto full = proxy.transcode(raw, ipaqCaps());
  const auto small = proxy.transcode(raw, ipaqCaps(), 16, 12);
  EXPECT_LT(small.size(), full.size() / 2);
  const DemuxedStream d = demux(small);
  EXPECT_EQ(d.video.width, 16);
  EXPECT_EQ(d.video.height, 12);
  EXPECT_EQ(d.video.frames.size(), clip.frames.size());
  ASSERT_TRUE(d.annotations.has_value());
  EXPECT_NO_THROW(core::validateTrack(*d.annotations));
}

TEST(Proxy, ResizedAnnotationsStayClose) {
  // Luminance statistics are (approximately) resolution-invariant, so the
  // resized stream's safe-luma ceilings should track the full-size ones.
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  const auto a = demux(proxy.transcode(raw, ipaqCaps()));
  const auto b = demux(proxy.transcode(raw, ipaqCaps(), 16, 12));
  ASSERT_TRUE(a.annotations && b.annotations);
  // Compare the q=0 ceiling of the first scene (bilinear smoothing can
  // lower peaks slightly at 16x12).
  EXPECT_NEAR(a.annotations->scenes[0].safeLuma[0],
              b.annotations->scenes[0].safeLuma[0], 25.0);
}

TEST(Proxy, ResizeValidation) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  const auto raw = server.serveRaw(clip.name);
  EXPECT_THROW((void)proxy.transcode(raw, ipaqCaps(), 16, 0),
               std::invalid_argument);
  EXPECT_THROW((void)proxy.transcode(raw, ipaqCaps(), 0, 12),
               std::invalid_argument);
}

TEST(Proxy, QualityIndexValidation) {
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  ProxyNode proxy;
  EXPECT_THROW((void)proxy.transcode(server.serveRaw(clip.name),
                                     ipaqCaps(17)),
               std::out_of_range);
}

TEST(Proxy, FanoutIsTheServerPipeline) {
  // The proxy is the server's pipeline applied to decoded input: decode,
  // (resize,) profile, annotate, then per client encodeForClient + mux.
  const media::VideoClip clip = testClip();
  MediaServer server;
  server.addClip(clip);
  const auto raw = server.serveRaw(clip.name);
  ClientCapabilities emissive = ipaqCaps(1);
  emissive.technology = DisplayTechnology::kEmissive;
  core::AnnotatorConfig tuned;
  tuned.qualityLevels = {0.0, 0.05, 0.2};
  tuned.granularity = core::Granularity::kPerFrame;

  struct Case {
    const char* name;
    ClientCapabilities caps;
    core::AnnotatorConfig cfg;
    int width;
    int height;
  };
  const Case cases[] = {{"lcd", ipaqCaps(2), {}, 0, 0},
                        {"emissive", emissive, {}, 0, 0},
                        {"tuned config", ipaqCaps(2), tuned, 0, 0},
                        {"resized 16x12", ipaqCaps(2), {}, 16, 12}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    media::VideoClip base = media::decodeClip(demux(raw).video);
    if (c.width > 0) {
      for (media::Image& frame : base.frames) {
        frame = media::resizeBilinear(frame, c.width, c.height);
      }
    }
    const core::AnnotationTrack track = core::annotate(
        base.name, base.fps, media::profileClip(base), c.cfg);
    const std::vector<std::uint8_t> expected =
        mux(encodeForClient(base, track, c.caps, {}), &track);
    const ClientCapabilities clients[] = {c.caps, c.caps};
    const FanoutResult fan =
        ProxyNode(c.cfg).transcodeFanout(raw, clients, c.width, c.height);
    ASSERT_EQ(fan.streams.size(), 2u);
    for (const std::vector<std::uint8_t>& stream : fan.streams) {
      EXPECT_EQ(stream, expected);
    }
  }
}

}  // namespace
}  // namespace anno::stream
