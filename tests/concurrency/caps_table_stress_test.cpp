// CapsTable under concurrent joins: four threads intern capabilities and
// open streams on one shared server at once.  Under -DANNO_SANITIZE=thread
// this is the TSan proof for the intern table; in every build it checks
// that racing interns agree on ids and never hand one id to two devices.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "media/clipgen.h"
#include "stream/server.h"

namespace anno::stream {
namespace {

constexpr int kThreads = 4;

ClientCapabilities classCaps(std::size_t c) {
  const display::DeviceModel d = display::makeDevice(
      c % 2 == 0 ? display::KnownDevice::kIpaq5555
                 : display::KnownDevice::kZaurusSl5600);
  return ClientCapabilities{d.name, d.transfer, c % 4};
}

TEST(CapsTableStress, ConcurrentInternsAndOpensAgree) {
  MediaServer server;
  server.addClip(
      media::generatePaperClip(media::PaperClip::kCatwoman, 0.02, 32, 24));
  constexpr std::size_t kClasses = 8;
  std::vector<ClientCapabilities> classes;
  for (std::size_t c = 0; c < kClasses; ++c) classes.push_back(classCaps(c));
  // Classes 4..7 repeat 0..3 with tables built separately.
  CapsTable table;
  std::vector<std::vector<CapsId>> ids(kThreads,
                                       std::vector<CapsId>(kClasses));
  std::vector<std::vector<StreamPtr>> streams(
      kThreads, std::vector<StreamPtr>(kClasses));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t k = 0; k < kClasses; ++k) {
          const std::size_t c = (k + static_cast<std::size_t>(t)) % kClasses;
          ids[t][c] = table.intern(classes[c]);
          streams[t][c] = server.openStream("catwoman", classes[c]).bytes;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(table.size(), 4u) << "classes 4..7 equal classes 0..3";
  for (std::size_t c = 0; c < kClasses; ++c) {
    const std::vector<std::uint8_t> serial =
        server.serve("catwoman", classes[c]);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][c], ids[0][c % 4]) << "thread " << t << " class " << c;
      EXPECT_EQ(*streams[t][c], serial) << "thread " << t << " class " << c;
    }
  }
  EXPECT_EQ(server.streamCache().stats().fills, 4u);
}

TEST(CapsTableStress, ConcurrentMissesStayBoundedWithUniqueIds) {
  CapsTable table;
  constexpr std::size_t kPerThread = CapsTable::kMaxEntries;
  std::vector<std::vector<CapsId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientCapabilities caps = classCaps(0);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        caps.deviceName = std::to_string(t * kPerThread + i);
        ids[t].push_back(table.intern(caps));
        EXPECT_LE(table.size(), CapsTable::kMaxEntries);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<CapsId> all;
  for (const std::vector<CapsId>& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end())
      << "distinct capabilities never share an id, even across evictions";
  EXPECT_EQ(table.size(), CapsTable::kMaxEntries);
}

}  // namespace
}  // namespace anno::stream
