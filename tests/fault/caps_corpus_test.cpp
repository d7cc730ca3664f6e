// Seeded mutation corpus over the negotiation message.  encodeCapabilities
// output is the stream cache key (stream/server.h StreamKey), so its decoder
// must be canonical: every mutant either throws a std::exception or decodes
// to capabilities that re-encode to exactly the bytes the decoder consumed.
// Two different messages can then never stand for one device.  The base
// messages are the soak's device classes.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>

#include "display/device.h"
#include "fault/inject.h"
#include "soak/traffic_mix.h"
#include "stream/server.h"

#ifndef ANNO_FAULT_CORPUS_SEED
#define ANNO_FAULT_CORPUS_SEED 0xF4017ULL
#endif
#ifndef ANNO_FAULT_CORPUS_SIZE
#define ANNO_FAULT_CORPUS_SIZE 10000
#endif

namespace anno::stream {
namespace {

ClientCapabilities capsFor(const soak::DeviceClass& dc) {
  const display::DeviceModel device = display::makeDevice(dc.device);
  ClientCapabilities caps;
  caps.deviceName = device.name;
  caps.transfer = device.transfer;
  caps.qualityIndex = dc.qualityIndex;
  caps.minBacklightLevel = dc.minBacklightLevel;
  return caps;
}

TEST(CapsCorpus, MutantsThrowOrDecodeCanonically) {
  std::uint64_t seed = ANNO_FAULT_CORPUS_SEED ^ 0xCA95ULL;
  for (const soak::DeviceClass& dc : soak::defaultDeviceClasses()) {
    const std::vector<std::uint8_t> base = encodeCapabilities(capsFor(dc));
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    fault::runCorpus(
        base, seed++, ANNO_FAULT_CORPUS_SIZE, {},
        [&](std::span<const std::uint8_t> mutated, const fault::InjectionPlan&,
            const fault::InjectionReport& report) {
          ClientCapabilities decoded;
          try {
            decoded = decodeCapabilities(mutated);
          } catch (const std::exception&) {
            ++rejected;
            ASSERT_FALSE(report.identity())
                << dc.name << ": rejected an unmutated message";
            return;
          }
          ++accepted;
          const std::vector<std::uint8_t> again = encodeCapabilities(decoded);
          ASSERT_LE(again.size(), mutated.size()) << dc.name;
          ASSERT_TRUE(std::equal(again.begin(), again.end(), mutated.begin()))
              << dc.name << ": accepted a non-canonical message";
        });
    EXPECT_EQ(accepted + rejected,
              static_cast<std::size_t>(ANNO_FAULT_CORPUS_SIZE));
    EXPECT_GT(rejected, accepted) << dc.name << ": the corpus must bite";
    EXPECT_GT(accepted, 0u) << dc.name;
  }
}

}  // namespace
}  // namespace anno::stream
