#include "stream/loss.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/anno_codec.h"
#include "core/runtime.h"
#include "display/device.h"
#include "media/clipgen.h"
#include "quality/metrics.h"

namespace anno::stream {
namespace {

struct Rig {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.04, 48, 36);
  Link wifi = makeReferencePath().lastHop();
};

TEST(Loss, ZeroLossDeliversEverything) {
  Rig rig;
  const media::EncodedClip enc = media::encodeClip(rig.clip, {75, 8});
  const auto deliveries = deliverFrames(enc, rig.wifi, {0.0});
  for (const FrameDelivery& d : deliveries) {
    EXPECT_TRUE(d.intact);
    EXPECT_EQ(d.packetsLost, 0u);
  }
  const ConcealedPlayback out = decodeWithConcealment(enc, deliveries);
  EXPECT_EQ(out.concealedFrames, 0u);
  EXPECT_EQ(out.intactFrames, rig.clip.frames.size());
  // Identical to the plain decode path.
  const media::VideoClip plain = media::decodeClip(enc);
  for (std::size_t i = 0; i < plain.frames.size(); i += 7) {
    EXPECT_EQ(out.video.frames[i], plain.frames[i]) << "frame " << i;
  }
}

TEST(Loss, DeliveryIsDeterministic) {
  Rig rig;
  const media::EncodedClip enc = media::encodeClip(rig.clip, {75, 8});
  const auto a = deliverFrames(enc, rig.wifi, {0.05, 99});
  const auto b = deliverFrames(enc, rig.wifi, {0.05, 99});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].intact, b[i].intact);
  }
}

TEST(Loss, IntraOnlyLimitsDamageToLostFrames) {
  Rig rig;
  const media::EncodedClip intra = media::encodeClip(rig.clip, {75, 1});
  const auto deliveries = deliverFrames(intra, rig.wifi, {0.03, 7});
  std::size_t lostFrames = 0;
  for (const FrameDelivery& d : deliveries) {
    if (!d.intact) ++lostFrames;
  }
  const ConcealedPlayback out = decodeWithConcealment(intra, deliveries);
  EXPECT_EQ(out.concealedFrames, lostFrames)
      << "intra-only: no propagation beyond the lost frames themselves";
}

TEST(Loss, InterCodingPropagatesUntilNextIntra) {
  Rig rig;
  const media::EncodedClip gop = media::encodeClip(rig.clip, {75, 12});
  const auto deliveries = deliverFrames(gop, rig.wifi, {0.03, 7});
  std::size_t lostFrames = 0;
  for (const FrameDelivery& d : deliveries) {
    if (!d.intact) ++lostFrames;
  }
  if (lostFrames == 0) GTEST_SKIP() << "no losses at this seed";
  const ConcealedPlayback out = decodeWithConcealment(gop, deliveries);
  EXPECT_GT(out.concealedFrames, lostFrames)
      << "a lost frame must damage the P frames chained on it";
}

TEST(Loss, LostPFrameConcealsUntilTheNextSceneCut) {
  // Two 10-frame scenes, dark then bright: the served configuration codes
  // I frames at 0 and at the cut (10), P frames between.  Losing P frame 4
  // freezes the picture on frame 3 until the cut's I frame resynchronises.
  media::ClipProfile profile;
  profile.name = "two_scenes";
  profile.width = 48;
  profile.height = 36;
  profile.fps = 12.0;
  for (const std::uint8_t luma : {40, 200}) {
    media::SceneSpec scene;
    scene.durationSeconds = 10 / profile.fps;
    scene.backgroundLuma = luma;
    profile.scenes.push_back(scene);
  }
  const media::EncodedClip enc = media::encodeClip(media::generateClip(profile));
  ASSERT_EQ(enc.frames.size(), 20u);
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    ASSERT_EQ(enc.frames[i].intra, i == 0 || i == 10) << "frame " << i;
  }
  std::vector<FrameDelivery> deliveries(enc.frames.size());
  deliveries[4].intact = false;
  const ConcealedPlayback out = decodeWithConcealment(enc, deliveries);
  EXPECT_EQ(out.concealedFrames, 6u);
  EXPECT_EQ(out.intactFrames, 14u);
  const media::VideoClip plain = media::decodeClip(enc);
  for (std::size_t i = 0; i < enc.frames.size(); ++i) {
    const bool concealed = i >= 4 && i < 10;
    EXPECT_EQ(out.video.frames[i], concealed ? plain.frames[3] : plain.frames[i])
        << "frame " << i;
  }
}

TEST(Loss, QualityDegradesMeasurablyWithLossRate) {
  Rig rig;
  const media::EncodedClip enc = media::encodeClip(rig.clip, {75, 8});
  const auto meanPsnr = [&](double loss) {
    const ConcealedPlayback out = decodeWithConcealment(
        enc, deliverFrames(enc, rig.wifi, {loss, 3}));
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < rig.clip.frames.size(); i += 5) {
      sum += quality::psnr(rig.clip.frames[i], out.video.frames[i]);
      ++n;
    }
    return sum / n;
  };
  const double clean = meanPsnr(0.0);
  const double lossy = meanPsnr(0.10);
  // Concealment (repeat-last-good) is gentle on slow content, but 10%
  // packet loss must still cost measurable fidelity.
  EXPECT_LT(lossy, clean - 0.3);
}

// ---------------------------------------------------------------------------
// Annotation-packet delivery (NACK/retransmit + erasure degradation).
// ---------------------------------------------------------------------------

core::AnnotationTrack lossTestTrack() {
  core::AnnotationTrack t;
  t.clipName = "loss_rig";
  t.fps = 15.0;
  t.granularity = core::Granularity::kPerScene;
  t.qualityLevels = {0.0, 0.05, 0.10};
  std::uint32_t start = 0;
  for (int i = 0; i < 40; ++i) {
    core::SceneAnnotation s;
    s.span.firstFrame = start;
    s.span.frameCount = 25 + static_cast<std::uint32_t>((i * 19) % 60);
    start += s.span.frameCount;
    const auto base = static_cast<std::uint8_t>(235 - (i * 13) % 170);
    s.safeLuma = {base, static_cast<std::uint8_t>(base - base / 8),
                  static_cast<std::uint8_t>(base - base / 5)};
    t.scenes.push_back(std::move(s));
  }
  t.frameCount = start;
  return t;
}

/// A tiny-MTU hop so the few-hundred-byte track spans many packets.
Link tinyMtuLink() { return Link{"tiny80211b", 11e6, 0.002, 64}; }

TEST(AnnotationDelivery, LosslessDeliveryIsExactAndFree) {
  const auto bytes = core::encodeTrack(lossTestTrack());
  const AnnotationDelivery d =
      deliverAnnotationTrack(bytes, tinyMtuLink(), {});
  EXPECT_TRUE(d.complete);
  EXPECT_EQ(d.bytes, bytes);
  EXPECT_EQ(d.packetsLost, 0u);
  EXPECT_EQ(d.retransmits, 0u);
  EXPECT_EQ(d.nackRounds, 0u);
  const std::size_t payloadPerPacket = 64 - kPacketHeaderBytes;
  EXPECT_EQ(d.packetCount,
            (bytes.size() + payloadPerPacket - 1) / payloadPerPacket);
}

TEST(AnnotationDelivery, IsDeterministic) {
  const auto bytes = core::encodeTrack(lossTestTrack());
  AnnotationDeliveryConfig cfg;
  cfg.channel = {0.10, 77};
  cfg.nackEnabled = true;
  const AnnotationDelivery a =
      deliverAnnotationTrack(bytes, tinyMtuLink(), cfg);
  const AnnotationDelivery b =
      deliverAnnotationTrack(bytes, tinyMtuLink(), cfg);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.packetsLost, b.packetsLost);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.erasedSpans, b.erasedSpans);
}

TEST(AnnotationDelivery, TwoPercentLossWithNackIsBitIdenticalToLossless) {
  // The acceptance bar: at <= 2% loss with NACK enabled, the delivered
  // track -- and therefore the backlight schedule the client builds -- is
  // bit-identical to lossless delivery, for EVERY seed tried.
  const core::AnnotationTrack track = lossTestTrack();
  const auto bytes = core::encodeTrack(track);
  const auto device = display::makeDevice(display::KnownDevice::kIpaq5555);
  const core::BacklightSchedule lossless =
      core::buildSchedule(track, 1, device, 10);

  bool sawLoss = false;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    AnnotationDeliveryConfig cfg;
    cfg.channel = {0.02, seed};
    cfg.nackEnabled = true;
    const AnnotationDelivery d =
        deliverAnnotationTrack(bytes, tinyMtuLink(), cfg);
    ASSERT_TRUE(d.complete) << "seed " << seed;
    ASSERT_EQ(d.bytes, bytes) << "seed " << seed;
    if (d.packetsLost > 0) {
      sawLoss = true;
      EXPECT_GT(d.retransmits, 0u);
      EXPECT_GE(d.nackRounds, 1u);
    }
    const core::AnnotationTrack rx = core::decodeTrack(d.bytes);
    EXPECT_EQ(rx, track);
    const core::BacklightSchedule sched =
        core::buildSchedule(rx, 1, device, 10);
    ASSERT_EQ(sched.commands.size(), lossless.commands.size());
    for (std::size_t i = 0; i < sched.commands.size(); ++i) {
      EXPECT_EQ(sched.commands[i].frame, lossless.commands[i].frame);
      EXPECT_EQ(sched.commands[i].level, lossless.commands[i].level);
      EXPECT_EQ(sched.commands[i].gainK, lossless.commands[i].gainK);
    }
  }
  EXPECT_TRUE(sawLoss) << "2% over ~50 multi-packet deliveries must lose "
                          "at least one packet, or the test shows nothing";
}

TEST(AnnotationDelivery, NackCostsTimeButRecovers) {
  const auto bytes = core::encodeTrack(lossTestTrack());
  AnnotationDeliveryConfig lossy;
  lossy.channel = {0.15, 9};
  lossy.nackEnabled = true;
  const AnnotationDelivery clean =
      deliverAnnotationTrack(bytes, tinyMtuLink(), {});
  const AnnotationDelivery recovered =
      deliverAnnotationTrack(bytes, tinyMtuLink(), lossy);
  ASSERT_GT(recovered.packetsLost, 0u);
  EXPECT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.bytes, bytes);
  EXPECT_GT(recovered.deliverySeconds, clean.deliverySeconds);
  EXPECT_GE(recovered.deliverySeconds,
            static_cast<double>(recovered.nackRounds) * kNackRttSeconds);
}

TEST(AnnotationDelivery, LossWithoutNackDegradesToBoundedFallback) {
  // Unrecovered packets become zero-filled erasures; the lenient decoder
  // repairs the damaged spans with full backlight, and the slew-limited
  // fallback schedule (a) never dims below the intact plan, (b) never
  // exceeds full-backlight power, (c) moves at most maxDelta per frame.
  const core::AnnotationTrack track = lossTestTrack();
  const auto bytes = core::encodeTrack(track);
  const auto device = display::makeDevice(display::KnownDevice::kIpaq5555);
  const core::BacklightSchedule intact =
      core::buildSchedule(track, 1, device, 10);
  const double fullPower = device.backlightPowerWatts(255);
  constexpr std::uint8_t kMaxDelta = 8;

  bool sawDegradedButUsable = false;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    AnnotationDeliveryConfig cfg;
    cfg.channel = {0.06, seed};
    cfg.nackEnabled = false;
    const AnnotationDelivery d =
        deliverAnnotationTrack(bytes, tinyMtuLink(), cfg);
    EXPECT_EQ(d.retransmits, 0u);
    EXPECT_EQ(d.bytes.size(), bytes.size()) << "erasures preserve framing";
    if (d.complete) continue;
    for (const auto& [offset, len] : d.erasedSpans) {
      for (std::size_t i = offset; i < offset + len; ++i) {
        EXPECT_EQ(d.bytes[i], 0u);
      }
    }
    const core::LenientDecodeResult lenient =
        core::decodeTrackLenient(d.bytes);
    if (!lenient.usable) continue;  // header packet lost: full fallback
    EXPECT_FALSE(lenient.damage.intact());
    sawDegradedButUsable = true;

    const core::BacklightSchedule sched = core::limitSlewRate(
        core::buildSchedule(lenient.track, 1, device, 10), kMaxDelta);
    ASSERT_EQ(sched.frameCount, track.frameCount);
    for (std::uint32_t f = 0; f < sched.frameCount; ++f) {
      EXPECT_GE(sched.levelAt(f), intact.levelAt(f))
          << "seed " << seed << " frame " << f;
      EXPECT_LE(device.backlightPowerWatts(sched.levelAt(f)),
                fullPower + 1e-12);
      if (f > 0) {
        const int delta = std::abs(static_cast<int>(sched.levelAt(f)) -
                                   static_cast<int>(sched.levelAt(f - 1)));
        EXPECT_LE(delta, static_cast<int>(kMaxDelta))
            << "seed " << seed << " frame " << f;
      }
    }
  }
  EXPECT_TRUE(sawDegradedButUsable);
}

TEST(AnnotationDelivery, Validation) {
  const std::vector<std::uint8_t> bytes(100, 0x42);
  AnnotationDeliveryConfig bad;
  bad.channel = {1.0, 1};
  EXPECT_THROW((void)deliverAnnotationTrack(bytes, tinyMtuLink(), bad),
               std::invalid_argument);
  bad.channel = {-0.1, 1};
  EXPECT_THROW((void)deliverAnnotationTrack(bytes, tinyMtuLink(), bad),
               std::invalid_argument);
  // Empty payload is a no-op, not an error.
  const AnnotationDelivery d =
      deliverAnnotationTrack(std::vector<std::uint8_t>{}, tinyMtuLink(), {});
  EXPECT_TRUE(d.complete);
  EXPECT_EQ(d.packetCount, 0u);
}

TEST(Loss, Validation) {
  Rig rig;
  const media::EncodedClip enc = media::encodeClip(rig.clip, {75, 4});
  EXPECT_THROW((void)deliverFrames(enc, rig.wifi, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)deliverFrames(enc, rig.wifi, {-0.1}),
               std::invalid_argument);
  std::vector<FrameDelivery> wrongCount(3);
  EXPECT_THROW((void)decodeWithConcealment(enc, wrongCount),
               std::invalid_argument);
}

}  // namespace
}  // namespace anno::stream
