#include "power/dvfs.h"

#include <gtest/gtest.h>

#include "media/bitstream.h"
#include "media/clipgen.h"

namespace anno::power {
namespace {

DvfsCpu cpu() { return DvfsCpu::xscalePxa255(); }

ComplexityTrack gopTrack() {
  // I frames heavy, P frames light: the pattern GOP coding produces.
  ComplexityTrack track;
  for (int i = 0; i < 60; ++i) {
    track.frameMegacycles.push_back(i % 12 == 0 ? 30.0 : 6.0);
  }
  return track;
}

TEST(DvfsCpu, OppsSortedAndPowered) {
  const DvfsCpu c = cpu();
  ASSERT_EQ(c.oppCount(), 4u);
  double prevFreq = 0.0, prevPower = 0.0;
  for (std::size_t i = 0; i < c.oppCount(); ++i) {
    EXPECT_GT(c.opps()[i].freqMHz, prevFreq);
    EXPECT_GT(c.activeWatts(i), prevPower);
    prevFreq = c.opps()[i].freqMHz;
    prevPower = c.activeWatts(i);
  }
  EXPECT_NEAR(c.activeWatts(3), 0.90, 1e-12);  // top OPP = decode power
  EXPECT_LT(c.idleWatts(), c.activeWatts(0));
}

TEST(DvfsCpu, VoltageScalingIsSuperlinear) {
  // Halving frequency (400->200) with lower voltage must save MORE than
  // half the power -- that is the whole point of DVFS.
  const DvfsCpu c = cpu();
  EXPECT_LT(c.activeWatts(1), 0.5 * c.activeWatts(3));
}

TEST(DvfsCpu, TimingAndInverse) {
  const DvfsCpu c = cpu();
  EXPECT_NEAR(c.secondsFor(400.0, 3), 1.0, 1e-12);  // 400 Mc @ 400 MHz
  EXPECT_NEAR(c.secondsFor(400.0, 0), 4.0, 1e-12);  // @ 100 MHz
  // Lowest OPP for 10 Mc in 40 ms: 100 MHz does it in 100 ms (no), 300 MHz
  // in 33 ms (yes); 200 MHz takes 50 ms (no).
  EXPECT_EQ(c.lowestOppFor(10.0, 0.040), 2u);
  // Impossible deadline: top OPP returned.
  EXPECT_EQ(c.lowestOppFor(1000.0, 0.001), 3u);
}

TEST(DvfsCpu, Validation) {
  EXPECT_THROW(DvfsCpu({}, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(DvfsCpu({{100.0, 1.0}}, -1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(DvfsCpu({{0.0, 1.0}}, 1.0, 0.1), std::invalid_argument);
  const DvfsCpu c = cpu();
  EXPECT_THROW((void)c.activeWatts(4), std::out_of_range);
  EXPECT_THROW((void)c.secondsFor(-1.0, 0), std::invalid_argument);
}

TEST(ComplexityTrack, FromEncodedClipTracksSizes) {
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kOfficeXp, 0.06, 48, 36);
  const media::EncodedClip enc = media::encodeClip(clip, {75, 8});
  const ComplexityTrack track = ComplexityTrack::fromEncodedClip(enc);
  ASSERT_EQ(track.frameMegacycles.size(), enc.frames.size());
  ASSERT_GT(track.frameMegacycles.size(), 9u);
  // I frames are bigger, hence more cycles, than neighbouring P frames.
  EXPECT_GT(track.frameMegacycles[0], track.frameMegacycles[1]);
  EXPECT_GT(track.frameMegacycles[8], track.frameMegacycles[7]);
}

TEST(ComplexityTrack, EncodeDecodeRoundtrip) {
  const ComplexityTrack track = gopTrack();
  const ComplexityTrack decoded = ComplexityTrack::decode(track.encode());
  ASSERT_EQ(decoded.frameMegacycles.size(), track.frameMegacycles.size());
  for (std::size_t i = 0; i < track.frameMegacycles.size(); ++i) {
    EXPECT_NEAR(decoded.frameMegacycles[i], track.frameMegacycles[i], 0.01);
  }
}

TEST(ComplexityTrack, DecodeRejectsCountLargerThanInput) {
  // A 2^40 frame count in a 16-byte buffer must throw the bounded-count
  // error, not reserve 8 TB of doubles (which would throw bad_alloc, or
  // abort under ASan).
  media::ByteWriter w;
  w.varint(std::uint64_t{1} << 40);
  while (w.size() < 16) w.u8(0);
  EXPECT_THROW((void)ComplexityTrack::decode(w.data()), std::out_of_range);
}

TEST(ComplexityTrack, EncodingIsCompact) {
  // Delta-coded similar values: ~1-2 bytes per frame.
  const ComplexityTrack track = gopTrack();
  EXPECT_LT(track.encode().size(), track.frameMegacycles.size() * 3);
}

TEST(DvfsSchedule, AnnotatedNeverMissesWhenFeasible) {
  // 30 Mc @ 400 MHz = 75 ms < 83 ms deadline at 12 fps: feasible.
  const DvfsResult r = scheduleAnnotated(cpu(), gopTrack(), 12.0);
  EXPECT_EQ(r.missedDeadlines, 0u);
}

TEST(DvfsSchedule, AnnotatedBeatsRaceToIdle) {
  const DvfsResult annotated = scheduleAnnotated(cpu(), gopTrack(), 12.0);
  const DvfsResult race = scheduleRaceToIdle(cpu(), gopTrack(), 12.0);
  EXPECT_LT(annotated.energyJoules, race.energyJoules);
  EXPECT_LT(annotated.averageFreqMHz, race.averageFreqMHz);
  EXPECT_GT(annotated.savingsVs(race), 0.05);
}

TEST(DvfsSchedule, ReactiveMissesAtComplexitySpikes) {
  // After a string of cheap P frames the reactive policy predicts cheap,
  // picks a low OPP, and the next I frame blows the deadline.
  const DvfsResult reactive = scheduleReactive(cpu(), gopTrack(), 12.0);
  EXPECT_GT(reactive.missedDeadlines, 0u);
  const DvfsResult annotated = scheduleAnnotated(cpu(), gopTrack(), 12.0);
  EXPECT_EQ(annotated.missedDeadlines, 0u);
}

TEST(DvfsSchedule, OppTraceMatchesWorkload) {
  const DvfsResult r = scheduleAnnotated(cpu(), gopTrack(), 12.0);
  ASSERT_EQ(r.oppPerFrame.size(), 60u);
  // Heavy frames need a higher OPP than light frames.
  EXPECT_GT(r.oppPerFrame[0], r.oppPerFrame[1]);
}

TEST(DvfsSchedule, Validation) {
  ComplexityTrack empty;
  EXPECT_THROW((void)scheduleAnnotated(cpu(), empty, 12.0),
               std::invalid_argument);
  EXPECT_THROW((void)scheduleAnnotated(cpu(), gopTrack(), 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)scheduleReactive(cpu(), gopTrack(), 12.0, 0.5),
               std::invalid_argument);
}

TEST(DvfsSchedule, InfeasibleWorkloadCountsMisses) {
  ComplexityTrack heavy;
  heavy.frameMegacycles.assign(10, 100.0);  // 250 ms @ 400 MHz
  const DvfsResult r = scheduleAnnotated(cpu(), heavy, 12.0);
  EXPECT_EQ(r.missedDeadlines, 10u);
}

}  // namespace
}  // namespace anno::power
