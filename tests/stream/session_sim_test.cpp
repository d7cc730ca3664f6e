#include "stream/session_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "media/clipgen.h"

namespace anno::stream {
namespace {

struct Rig {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kOfficeXp, 0.08, 48, 36);
  media::EncodedClip encoded = media::encodeClip(clip, {75, 12});
  Link wifi = makeReferencePath().lastHop();

  /// Average stream bitrate in bits/s.
  [[nodiscard]] double bitrate() const {
    return static_cast<double>(encoded.totalBytes()) * 8.0 /
           clip.durationSeconds();
  }
};

TEST(BandwidthTrace, ConstantAndValidation) {
  const BandwidthTrace t = BandwidthTrace::constant(5e6);
  EXPECT_DOUBLE_EQ(t.at(0.0), 5e6);
  EXPECT_DOUBLE_EQ(t.at(100.0), 5e6);
  EXPECT_THROW((void)BandwidthTrace::constant(0.0), std::invalid_argument);
}

TEST(BandwidthTrace, PeriodicDipShape) {
  const BandwidthTrace t =
      BandwidthTrace::periodicDip(10e6, 1e6, 1.0, 0.2);
  EXPECT_DOUBLE_EQ(t.at(0.05), 1e6);   // inside the dip
  EXPECT_DOUBLE_EQ(t.at(0.5), 10e6);   // outside
  EXPECT_DOUBLE_EQ(t.at(1.05), 1e6);   // next period's dip
  EXPECT_THROW((void)BandwidthTrace::periodicDip(10e6, 1e6, 1.0, 2.0),
               std::invalid_argument);
}

TEST(BandwidthTrace, PeriodicDipMatchesMaterialisedPeriods) {
  // Reference: the trace as a table of 100 concatenated periods at 10 ms
  // steps, held at its last rate past the end.
  const auto reference = [](double rate, double dipRate, double period,
                            double dip) {
    constexpr double kStep = 0.01;
    const int stepsPerPeriod = std::max(1, static_cast<int>(period / kStep));
    const int dipSteps = static_cast<int>(dip / kStep);
    std::vector<double> rates;
    for (int p = 0; p < 100; ++p) {
      for (int s = 0; s < stepsPerPeriod; ++s) {
        rates.push_back(s < dipSteps ? dipRate : rate);
      }
    }
    return [rates](double t) {
      const auto idx = static_cast<std::size_t>(t / kStep);
      return idx < rates.size() ? rates[idx] : rates.back();
    };
  };
  struct Shape {
    double period;
    double dip;
  };
  // servebench's commute link, the soak's, and a dip as long as the period.
  for (const Shape shape : {Shape{0.5, 0.125}, Shape{2.0, 0.5},
                            Shape{1.0, 1.0}}) {
    const BandwidthTrace trace =
        BandwidthTrace::periodicDip(6e6, 0.9e6, shape.period, shape.dip);
    const auto expected = reference(6e6, 0.9e6, shape.period, shape.dip);
    const auto steps =
        static_cast<std::size_t>(std::llround(110.0 * shape.period / 1e-3));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i <= steps; ++i) {
      const double t = static_cast<double>(i) * 1e-3;
      if (trace.at(t) != expected(t)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "period " << shape.period << " dip "
                              << shape.dip;
  }
}

TEST(BandwidthTrace, RandomWalkBoundedAndDeterministic) {
  const BandwidthTrace a =
      BandwidthTrace::randomWalk(8e6, 0.2, 42, 0.1, 20.0);
  const BandwidthTrace b =
      BandwidthTrace::randomWalk(8e6, 0.2, 42, 0.1, 20.0);
  for (double t = 0.0; t < 20.0; t += 0.5) {
    EXPECT_DOUBLE_EQ(a.at(t), b.at(t));
    EXPECT_GE(a.at(t), 0.8e6);
    EXPECT_LE(a.at(t), 16e6);
  }
}

TEST(SessionSim, AmpleBandwidthPlaysCleanly) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 10.0);
  const SessionSimResult r = simulateSession(rig.encoded, rig.wifi, bw);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rebufferEvents, 0u);
  EXPECT_LT(r.startupDelaySeconds, 1.0);
}

TEST(SessionSim, StarvedLinkStallsButCompletes) {
  Rig rig;
  // Link carries only ~60% of the stream bitrate: stalls are inevitable,
  // but the session must still complete (it just takes longer).
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 0.6);
  const SessionSimResult r = simulateSession(rig.encoded, rig.wifi, bw);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.rebufferEvents, 0u);
  EXPECT_GT(r.sessionSeconds, rig.clip.durationSeconds() * 1.3);
}

TEST(SessionSim, PeriodicDipsCauseBoundedStalls) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::periodicDip(
      rig.bitrate() * 3.0, rig.bitrate() * 0.05, 2.0, 1.0);
  SessionSimConfig cfg;
  cfg.startupBufferSeconds = 0.25;
  cfg.bufferCapacitySeconds = 1.0;  // small buffer: dips hurt
  const SessionSimResult r =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  EXPECT_TRUE(r.completed);
  // A LARGER buffer must absorb the same dips at least as well.
  SessionSimConfig big = cfg;
  big.bufferCapacitySeconds = 6.0;
  const SessionSimResult rBig =
      simulateSession(rig.encoded, rig.wifi, bw, big);
  EXPECT_LE(rBig.rebufferTotalSeconds, r.rebufferTotalSeconds + 1e-9);
}

TEST(SessionSim, BufferCapacityRespected) {
  Rig rig;
  SessionSimConfig cfg;
  cfg.bufferCapacitySeconds = 2.0;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 20.0);
  const SessionSimResult r =
      simulateSession(rig.encoded, rig.wifi, bw, cfg);
  // One frame of slack allowed (delivery completes a frame mid-tick).
  EXPECT_LE(r.maxBufferSeconds, cfg.bufferCapacitySeconds + 0.2);
}

TEST(SessionSim, PreambleDelaysStartupProportionally) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(rig.bitrate() * 4.0);
  SessionSimConfig noAnno;
  SessionSimConfig withAnno;
  withAnno.preambleBytes = 100;  // an annotation track's worth
  SessionSimConfig huge;
  huge.preambleBytes = 500000;  // what shipping raw per-frame data would cost
  const double t0 =
      simulateSession(rig.encoded, rig.wifi, bw, noAnno).startupDelaySeconds;
  const double tAnno =
      simulateSession(rig.encoded, rig.wifi, bw, withAnno)
          .startupDelaySeconds;
  const double tHuge =
      simulateSession(rig.encoded, rig.wifi, bw, huge).startupDelaySeconds;
  EXPECT_NEAR(tAnno, t0, 0.05) << "annotations must not delay startup";
  EXPECT_GT(tHuge, t0 + 0.2) << "a bulky side channel WOULD delay startup";
}

TEST(SessionSim, Validation) {
  Rig rig;
  const BandwidthTrace bw = BandwidthTrace::constant(1e6);
  media::EncodedClip empty;
  EXPECT_THROW((void)simulateSession(empty, rig.wifi, bw),
               std::invalid_argument);
  SessionSimConfig bad;
  bad.tickSeconds = 0.0;
  EXPECT_THROW((void)simulateSession(rig.encoded, rig.wifi, bw, bad),
               std::invalid_argument);
  bad = SessionSimConfig{};
  bad.bufferCapacitySeconds = bad.startupBufferSeconds;
  EXPECT_THROW((void)simulateSession(rig.encoded, rig.wifi, bw, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace anno::stream
