#include "power/trace.h"

#include <gtest/gtest.h>

namespace anno::power {
namespace {

TEST(PowerTrace, EnergyIntegration) {
  PowerTrace t(0.5);  // 0.5 s per sample
  t.append(2.0);
  t.append(4.0);
  EXPECT_DOUBLE_EQ(t.energyJoules(), 3.0);
  EXPECT_DOUBLE_EQ(t.averageWatts(), 3.0);
  EXPECT_DOUBLE_EQ(t.durationSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(t.peakWatts(), 4.0);
  EXPECT_DOUBLE_EQ(t.minWatts(), 2.0);
}

TEST(PowerTrace, EmptyTrace) {
  PowerTrace t(0.1);
  EXPECT_DOUBLE_EQ(t.energyJoules(), 0.0);
  EXPECT_DOUBLE_EQ(t.averageWatts(), 0.0);
  EXPECT_EQ(t.sampleCount(), 0u);
}

TEST(PowerTrace, InvalidIntervalThrows) {
  EXPECT_THROW(PowerTrace(0.0), std::invalid_argument);
  EXPECT_THROW(PowerTrace(-1.0), std::invalid_argument);
}

TEST(PowerTrace, AppendTraceConcatenates) {
  PowerTrace a(0.1), b(0.1);
  a.append(1.0);
  b.append(2.0);
  b.append(3.0);
  a.append(b);
  EXPECT_EQ(a.sampleCount(), 3u);
  EXPECT_DOUBLE_EQ(a.averageWatts(), 2.0);
}

TEST(PowerTrace, AppendMismatchedRateThrows) {
  PowerTrace a(0.1), b(0.2);
  b.append(1.0);
  EXPECT_THROW(a.append(b), std::invalid_argument);
}

}  // namespace
}  // namespace anno::power
