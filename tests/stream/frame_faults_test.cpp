// Page-fault regression test of the client decode path.
//
// Decoded frames recycle through media's per-thread frame pool (DESIGN.md
// sec. 12, "Frame memory").  Without it each source's round frees about
// 2 MB of 160x120 frames, glibc trims its heap, and the next round faults
// the pages back in: about 6 minor faults per received frame here, 1.4
// with the pool.  The test drives what a live proxy does: fan-out of
// three sources to the soak's device classes, then every client's receive.
#include <sys/resource.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "display/device.h"
#include "media/clipgen.h"
#include "soak/traffic_mix.h"
#include "stream/client.h"
#include "stream/net.h"
#include "stream/proxy.h"
#include "stream/server.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ANNO_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ANNO_SANITIZED_BUILD 1
#endif
#endif

namespace anno::stream {
namespace {

#if defined(RUSAGE_THREAD) && !defined(ANNO_SANITIZED_BUILD)

long threadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(FrameMemory, ProxyRoundFaultsAtMostTwicePerReceivedFrame) {
  constexpr int kWidth = 160;
  constexpr int kHeight = 120;
  constexpr std::size_t kFrames = 9;
  MediaServer server;
  std::vector<std::vector<std::uint8_t>> raws;
  const media::PaperClip picks[] = {media::PaperClip::kIRobot,
                                    media::PaperClip::kShrek2,
                                    media::PaperClip::kIceAge};
  for (const media::PaperClip pick : picks) {
    media::VideoClip clip =
        media::generatePaperClip(pick, 0.05, kWidth, kHeight);
    ASSERT_GE(clip.frames.size(), kFrames);
    clip.frames.resize(kFrames);
    clip.name = "live-" + media::paperClipName(pick);
    server.addClip(clip);
    raws.push_back(server.serveRaw(clip.name));
  }

  std::vector<ClientCapabilities> caps;
  std::vector<ClientSession> clients;
  for (const soak::DeviceClass& dc : soak::defaultDeviceClasses()) {
    ClientConfig cfg;
    cfg.device = display::makeDevice(dc.device);
    cfg.qualityIndex = dc.qualityIndex;
    cfg.minBacklightLevel = dc.minBacklightLevel;
    clients.emplace_back(cfg, makeReferencePath());
    caps.push_back(clients.back().capabilities());
  }

  const ProxyNode proxy;
  // One round: each source in turn fans out and every client receives its
  // stream; a source's four decoded clips are alive together.
  const auto round = [&] {
    std::size_t frames = 0;
    for (const std::vector<std::uint8_t>& raw : raws) {
      std::vector<ReceivedStream> received;
      const FanoutResult fan = proxy.transcodeFanout(raw, caps);
      for (std::size_t i = 0; i < clients.size(); ++i) {
        received.push_back(clients[i].receive(fan.streams[i]));
        EXPECT_TRUE(received.back().ok);
        frames += received.back().video.frames.size();
      }
    }
    return frames;
  };

  (void)round();  // warm-up: the pool and the heap reach steady state
  for (int r = 0; r < 3; ++r) {
    const long before = threadMinorFaults();
    const std::size_t frames = round();
    const long faults = threadMinorFaults() - before;
    ASSERT_EQ(frames, raws.size() * clients.size() * kFrames);
    EXPECT_LE(faults, static_cast<long>(2 * frames))
        << "round " << r << ": " << faults << " minor faults for " << frames
        << " received frames";
  }
}

#endif

}  // namespace
}  // namespace anno::stream
