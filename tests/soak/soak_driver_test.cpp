// soak::runSoak: the fleet soak against the REAL serving stack at test
// scale.  Pins the determinism contract (same config -> byte-identical
// deterministic core, INCLUDING across deliveryThreads settings -- the
// scheduler's worker-pool tick must be indistinguishable from serial), the
// accounting invariants (every planned session joins and terminates, hour
// buckets and cells sum to the totals), and the fault-injection arm's
// liveness + never-throws contract.
#include "soak/driver.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>

#include "soak/traffic_mix.h"

namespace anno::soak {
namespace {

SoakConfig smallSoak() {
  SoakConfig cfg;
  cfg.mix.sessions = 400;
  cfg.mix.daySeconds = 30.0;
  cfg.mix.tenantCount = 6;
  return cfg;
}

TEST(SoakDriver, RunsEverySessionToTerminal) {
  const FleetSoakReport r = runSoak(smallSoak());
  EXPECT_EQ(r.sessionsPlanned, 400u);
  EXPECT_EQ(r.sessionsJoined, r.sessionsPlanned);
  EXPECT_EQ(r.sessionsCompleted + r.sessionsLeft, r.sessionsJoined);
  EXPECT_GT(r.peakConcurrentSessions, 0u);
  EXPECT_GT(r.ticks, 0u);
}

TEST(SoakDriver, ReportMetricsAreSane) {
  const FleetSoakReport r = runSoak(smallSoak());
  EXPECT_GT(r.servedHours, 0.0);
  EXPECT_GT(r.joulesSaved, 0.0);
  EXPECT_GT(r.wattsSavedPerMillionSessions, 0.0);
  EXPECT_GT(r.backlightSavingsFraction, 0.0);
  EXPECT_LT(r.backlightSavingsFraction, 1.0);
  EXPECT_GT(r.cacheHitRate, 0.0);
  EXPECT_LE(r.cacheHitRate, 1.0);
  EXPECT_GT(r.cacheFills, 0u);
  EXPECT_GE(r.startupP99Seconds, r.startupP50Seconds);
  EXPECT_GE(r.rebufferP99Seconds, r.rebufferP50Seconds);
  EXPECT_GT(r.bytesDelivered, 0u);
  EXPECT_GT(r.enginePassesPerServedHour, 0.0);
  // The cache makes engine passes a function of unique (profile, tenant)
  // keys, not session count -- the whole point of the sharing layer.
  EXPECT_LT(r.cacheFills, r.sessionsJoined);
}

TEST(SoakDriver, HourBucketsAndCellsSumToTotals) {
  const FleetSoakReport r = runSoak(smallSoak());
  ASSERT_EQ(r.hours.size(), 24u);
  std::size_t arrivals = 0;
  std::size_t completions = 0;
  std::uint64_t streamHits = 0;
  std::uint64_t streamEvictions = 0;
  for (const SoakHourBucket& h : r.hours) {
    arrivals += h.arrivals;
    completions += h.completions;
    streamHits += h.streamCacheHits;
    streamEvictions += h.streamCacheEvictions;
  }
  EXPECT_EQ(arrivals, r.sessionsJoined);
  EXPECT_EQ(completions, r.sessionsCompleted);
  EXPECT_EQ(streamHits, r.streamCacheHits);
  EXPECT_EQ(streamEvictions, r.streamCacheEvictions);
  EXPECT_GT(r.streamCacheHits, 0u);
  EXPECT_GT(r.streamCacheBytes, 0u);
  EXPECT_EQ(r.hours.back().streamCacheBytes, r.streamCacheBytes);
  std::uint64_t cellSessions = 0;
  double cellServed = 0.0;
  for (const SoakCell& c : r.cells) {
    cellSessions += c.sessions;
    cellServed += c.servedSeconds;
  }
  EXPECT_EQ(cellSessions, r.sessionsJoined);
  EXPECT_NEAR(cellServed / 3600.0, r.servedHours, 1e-9);
}

TEST(SoakDriver, DeterministicCoreByteIdentical) {
  const std::string a = deterministicJson(runSoak(smallSoak()));
  const std::string b = deterministicJson(runSoak(smallSoak()));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(SoakDriver, WorkerPoolDeliveryPinnedToSerial) {
  SoakConfig serial = smallSoak();
  serial.deliveryThreads = 1;
  SoakConfig pooled = smallSoak();
  pooled.deliveryThreads = 4;
  EXPECT_EQ(deterministicJson(runSoak(serial)),
            deterministicJson(runSoak(pooled)))
      << "parallel delivery must be bit-identical to single-threaded tick";
}

TEST(SoakDriver, WorkerPoolDeliveryPinnedUnderDeadlinePolicy) {
  SoakConfig serial = smallSoak();
  serial.policy = stream::SchedulePolicy::kDeadline;
  serial.serviceBudgetPerTick = 8;
  SoakConfig pooled = serial;
  pooled.deliveryThreads = 3;
  EXPECT_EQ(deterministicJson(runSoak(serial)),
            deterministicJson(runSoak(pooled)));
}

TEST(SoakDriver, FaultArmLiveAndClientNeverThrows) {
  const FleetSoakReport r = runSoak(smallSoak());
  EXPECT_GT(r.faultSessions, 0u);
  EXPECT_GT(r.faultMutationsApplied, 0u);
  EXPECT_EQ(r.faultSessions, r.faultDecodeOk + r.faultUndecodable)
      << "every damaged stream either decodes or is undecodable";
  EXPECT_LE(r.faultFallbacks, r.faultDecodeOk)
      << "a fallback is a decoded stream that lost its annotations";
  EXPECT_EQ(r.faultThrows, 0u)
      << "ClientSession::receive must degrade, never throw";
}

TEST(SoakDriver, JsonCarriesDeterministicCoreAndMeasuredBlock) {
  const FleetSoakReport r = runSoak(smallSoak());
  const std::string det = deterministicJson(r);
  const std::string full = toJson(r, "  \"extra_marker\": true\n");
  EXPECT_NE(det.find("\"watts_saved_per_million_sessions\""),
            std::string::npos);
  EXPECT_NE(det.find("\"cache_hit_rate\""), std::string::npos);
  EXPECT_EQ(det.find("\"soak_wall_seconds\""), std::string::npos)
      << "wall clock must stay out of the determinism digest";
  EXPECT_NE(full.find("\"soak_wall_seconds\""), std::string::npos);
  EXPECT_NE(full.find("\"extra_marker\": true"), std::string::npos);
}

}  // namespace
}  // namespace anno::soak
