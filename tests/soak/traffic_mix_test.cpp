// soak::generateTrafficMix: the schedule is a pure function of the config
// (same seed, same plans, on any platform), arrivals land exactly and follow
// the diurnal shape, and the tenant configs are plan-distinct by
// construction (distinct fingerprints -- the property the TrackCache keying
// and the CapacityModel's structural hit-rate prediction both lean on).
#include "soak/traffic_mix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

namespace anno::soak {
namespace {

TrafficMixConfig smallConfig() {
  TrafficMixConfig cfg;
  cfg.sessions = 3000;
  cfg.daySeconds = 60.0;
  cfg.tenantCount = 8;
  return cfg;
}

TEST(TrafficMix, SameConfigSameSchedule) {
  const TrafficMix a = generateTrafficMix(smallConfig());
  const TrafficMix b = generateTrafficMix(smallConfig());
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.arrivalsPerHour, b.arrivalsPerHour);
}

TEST(TrafficMix, SeedChangesSchedule) {
  TrafficMixConfig other = smallConfig();
  other.seed ^= 0xDEADBEEF;
  EXPECT_NE(generateTrafficMix(smallConfig()).sessions,
            generateTrafficMix(other).sessions);
}

TEST(TrafficMix, ArrivalsLandExactlyAndSorted) {
  const TrafficMix mix = generateTrafficMix(smallConfig());
  ASSERT_EQ(mix.sessions.size(), smallConfig().sessions);
  EXPECT_TRUE(std::is_sorted(mix.sessions.begin(), mix.sessions.end(),
                             [](const SessionPlan& a, const SessionPlan& b) {
                               return a.arrivalTick < b.arrivalTick;
                             }));
  for (const SessionPlan& plan : mix.sessions) {
    EXPECT_LT(plan.arrivalTick, mix.ticks);
    EXPECT_LT(plan.deviceClass, mix.config.deviceClasses.size());
    EXPECT_LT(plan.contentProfile, mix.config.contentProfiles.size());
    EXPECT_LT(plan.tenant, mix.tenants.size());
    EXPECT_GT(plan.bandwidthScale, 0.0);
  }
  ASSERT_EQ(mix.arrivalsPerHour.size(), 24u);
  EXPECT_EQ(std::accumulate(mix.arrivalsPerHour.begin(),
                            mix.arrivalsPerHour.end(), std::size_t{0}),
            smallConfig().sessions);
}

TEST(TrafficMix, DiurnalShapePeaksAtPeakHour) {
  const TrafficMix mix = generateTrafficMix(smallConfig());
  // Default shape: peak at hour 20, trough 12 hours away at hour 8.
  EXPECT_GT(mix.arrivalsPerHour[20], 2 * mix.arrivalsPerHour[8]);
  EXPECT_GT(diurnalWeight(20.0), diurnalWeight(8.0));
}

TEST(TrafficMix, TenantFingerprintsDistinct) {
  const auto tenants = makeTenantConfigs(16);
  ASSERT_EQ(tenants.size(), 16u);
  std::set<std::uint64_t> fingerprints;
  for (const core::AnnotatorConfig& t : tenants) {
    fingerprints.insert(t.fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), tenants.size())
      << "tenant configs must be plan-distinct";
}

TEST(TrafficMix, UniqueAnnotationKeysMatchBruteForce) {
  const TrafficMix mix = generateTrafficMix(smallConfig());
  std::set<std::pair<std::uint32_t, std::uint64_t>> keys;
  for (const SessionPlan& plan : mix.sessions) {
    keys.insert({plan.contentProfile,
                 mix.tenants[plan.tenant].fingerprint()});
  }
  EXPECT_EQ(mix.uniqueAnnotationKeys(), keys.size());
  EXPECT_GT(mix.uniqueAnnotationKeys(), 0u);
  EXPECT_LE(mix.uniqueAnnotationKeys(),
            mix.config.contentProfiles.size() * mix.tenants.size());
}

TEST(TrafficMix, LeaveAndFaultFractionsApproximatelyHonored) {
  const TrafficMix mix = generateTrafficMix(smallConfig());
  std::size_t leavers = 0;
  std::size_t faulted = 0;
  for (const SessionPlan& plan : mix.sessions) {
    if (plan.leaveAfterTicks != 0) ++leavers;
    if (plan.faultSeed != 0) ++faulted;
  }
  const auto n = static_cast<double>(mix.sessions.size());
  EXPECT_NEAR(static_cast<double>(leavers) / n, kLeaveFraction, 0.01);
  EXPECT_NEAR(static_cast<double>(faulted) / n, kFaultFraction, 0.01);
  EXPECT_GT(faulted, 0u);
}

TEST(TrafficMix, DefaultsFilledIn) {
  const TrafficMix mix = generateTrafficMix(smallConfig());
  EXPECT_EQ(mix.config.deviceClasses.size(), defaultDeviceClasses().size());
  EXPECT_FALSE(mix.config.contentProfiles.empty());
  EXPECT_EQ(mix.tenants.size(), smallConfig().tenantCount);
}

TEST(TrafficMix, DegenerateConfigsThrow) {
  TrafficMixConfig cfg = smallConfig();
  cfg.sessions = 0;
  EXPECT_THROW((void)generateTrafficMix(cfg), std::invalid_argument);
  cfg = smallConfig();
  cfg.tickSeconds = 0.0;
  EXPECT_THROW((void)generateTrafficMix(cfg), std::invalid_argument);
  cfg = smallConfig();
  cfg.daySeconds = -1.0;
  EXPECT_THROW((void)generateTrafficMix(cfg), std::invalid_argument);
  cfg = smallConfig();
  cfg.tenantCount = 0;
  EXPECT_THROW((void)generateTrafficMix(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace anno::soak
