// The client-side half of the robustness contract: ClientSession::receive
// must survive ANY stream bytes -- mutated, truncated, or pure noise --
// without throwing, and damaged annotations must degrade toward full
// backlight (never dimmer than the intact plan) with bounded flicker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/anno_codec.h"
#include "fault/inject.h"
#include "media/bitstream.h"
#include "media/clipgen.h"
#include "media/codec.h"
#include "media/rng.h"
#include "stream/client.h"
#include "stream/mux.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

struct Rig {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kShrek2, 0.03, 32, 24);
  MediaServer server;
  ClientConfig cfg{display::makeDevice(display::KnownDevice::kIpaq5555), 2,
                   10};
  Rig() { server.addClip(clip); }

  [[nodiscard]] ClientSession client() const {
    return ClientSession(cfg, makeReferencePath());
  }

  [[nodiscard]] std::vector<std::uint8_t> servedBytes() const {
    return server.serve(clip.name, client().capabilities());
  }
};

/// receive() wrapped so a throw becomes a test failure with context.
ReceivedStream mustNotThrow(const ClientSession& client,
                            std::span<const std::uint8_t> bytes,
                            const char* what) {
  try {
    return client.receive(bytes);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": receive threw: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": receive threw a non-std exception";
  }
  return {};
}

TEST(ClientFault, MutatedStreamsNeverThrow) {
  Rig rig;
  const ClientSession client = rig.client();
  const auto base = rig.servedBytes();
  std::size_t okCount = 0;
  std::size_t intactCount = 0;
  fault::runCorpus(
      base, 0xC11E47, 1500, {},
      [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
          const fault::InjectionReport& report) {
        const ReceivedStream rx = mustNotThrow(client, mutated, "mutant");
        if (rx.ok) {
          ++okCount;
          // Whatever played got a complete schedule for its frames.
          ASSERT_EQ(rx.schedule.frameCount, rx.video.frames.size());
        }
        if (report.identity()) {
          ASSERT_TRUE(rx.ok) << "unmutated stream must play";
          ASSERT_FALSE(rx.annotationFallback);
          ++intactCount;
        }
      });
  // The corpus must exercise both arms: some mutants still play (possibly
  // degraded), many are rejected as unplayable.
  EXPECT_GT(okCount, intactCount);
}

TEST(ClientFault, AnnotationSectionCorruptionDegradesGracefully) {
  Rig rig;
  const ClientSession client = rig.client();
  const auto base = rig.servedBytes();
  const ReceivedStream clean = client.receive(base);
  ASSERT_TRUE(clean.ok);
  ASSERT_FALSE(clean.annotationFallback);

  // The muxed stream embeds the ANN1 track verbatim: locate its magic.
  const std::uint8_t magic[] = {0x31, 0x4E, 0x4E, 0x41};  // "ANN1", LE
  const auto it =
      std::search(base.begin(), base.end(), std::begin(magic), std::end(magic));
  ASSERT_NE(it, base.end()) << "served stream must contain an ANN1 track";
  const auto annoOffset = static_cast<std::size_t>(it - base.begin());

  media::SplitMix64 rng(0xA110);
  for (int trial = 0; trial < 64; ++trial) {
    auto bad = base;
    // Corrupt 1..3 bytes inside the annotation track (past magic+version).
    const int hits = 1 + static_cast<int>(rng.below(3));
    for (int h = 0; h < hits; ++h) {
      const std::size_t pos =
          annoOffset + 5 + rng.below(std::min<std::size_t>(
                               bad.size() - annoOffset - 5, 200));
      bad[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const ReceivedStream rx = mustNotThrow(client, bad, "annotation corrupt");
    if (!rx.ok) continue;  // corruption bled into the container framing
    ASSERT_EQ(rx.schedule.frameCount, clean.schedule.frameCount);
    if (!rx.annotationFallback) continue;  // e.g. only trailing slack hit

    for (std::uint32_t f = 0; f < rx.schedule.frameCount; ++f) {
      // Degradation is toward FULL backlight: never dimmer than the intact
      // plan (dimmer could clip compensated pixels), never brighter than
      // the non-annotated baseline (so power stays bounded by it).
      EXPECT_GE(rx.schedule.levelAt(f), clean.schedule.levelAt(f))
          << "trial " << trial << " frame " << f;
      EXPECT_LE(
          rig.cfg.device.backlightPowerWatts(rx.schedule.levelAt(f)),
          rig.cfg.device.backlightPowerWatts(255) + 1e-12);
      if (f > 0) {
        const int delta = std::abs(static_cast<int>(rx.schedule.levelAt(f)) -
                                   static_cast<int>(rx.schedule.levelAt(f - 1)));
        EXPECT_LE(delta, static_cast<int>(kMaxBacklightDeltaPerFrame))
            << "trial " << trial << " frame " << f;
      }
    }
  }
}

// The Rig clip's default annotation track (one scene, five quality levels)
// as the retired ANN0 framing wrote it: magic "ANN0", varint header,
// scene-length varints and an RLE'd safeLuma matrix, with no checksums.
constexpr std::uint8_t kAnn0Track[] = {
    0x30, 0x4E, 0x4E, 0x41, 0x06, 0x73, 0x68, 0x72, 0x65, 0x6B, 0x32, 0xE0,
    0x5D, 0x20, 0x00, 0x05, 0x00, 0x32, 0x64, 0x96, 0x01, 0xC8, 0x01, 0x01,
    0x20, 0x0A, 0x01, 0xDF, 0x01, 0xB0, 0x01, 0xA9, 0x01, 0xA2, 0x01, 0x9C,
};

TEST(ClientFault, Ann0AnnotationSectionIsRejected) {
  EXPECT_THROW((void)core::decodeTrack(kAnn0Track), std::runtime_error);
  EXPECT_FALSE(core::decodeTrackLenient(kAnn0Track).usable);

  // An AV2 video section followed by the ANN0 blob as the annotation
  // section (type 2): the video plays, the annotations are dropped.
  Rig rig;
  const media::EncodedClip video = media::encodeClip(rig.clip);
  media::ByteWriter w;
  w.bytes(mux(video));
  w.u8(2);
  w.varint(sizeof kAnn0Track);
  w.bytes(kAnn0Track);
  const std::vector<std::uint8_t> stream = w.take();

  const DemuxedStream demuxed = demux(stream);
  EXPECT_FALSE(demuxed.annotations.has_value());

  const ReceivedStream rx = rig.client().receive(stream);
  ASSERT_TRUE(rx.ok) << rx.error;
  EXPECT_TRUE(rx.annotationFallback);
  ASSERT_EQ(rx.schedule.frameCount, rig.clip.frames.size());
  for (std::uint32_t f = 0; f < rx.schedule.frameCount; ++f) {
    EXPECT_EQ(rx.schedule.levelAt(f), 255) << "frame " << f;
  }
}

TEST(ClientFault, TruncatedStreamsNeverThrow) {
  Rig rig;
  const ClientSession client = rig.client();
  const auto base = rig.servedBytes();
  for (std::size_t k = 0; k < base.size(); k += 17) {
    const std::span<const std::uint8_t> prefix(base.data(), k);
    (void)mustNotThrow(client, prefix, "truncated");
  }
}

TEST(ClientFault, PureNoiseIsRejectedNotThrown) {
  Rig rig;
  const ClientSession client = rig.client();
  media::SplitMix64 rng(0x70153);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> noise(rng.below(4096));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
    const ReceivedStream rx = mustNotThrow(client, noise, "noise");
    EXPECT_FALSE(rx.ok);
    EXPECT_FALSE(rx.error.empty() && !noise.empty());
  }
}

}  // namespace
}  // namespace anno::stream
