#include "core/runtime.h"

#include <gtest/gtest.h>

#include "core/annotate.h"
#include "media/clipgen.h"

namespace anno::core {
namespace {

AnnotationTrack makeTrack() {
  AnnotationTrack t;
  t.clipName = "t";
  t.fps = 12.0;
  t.frameCount = 60;
  t.qualityLevels = {0.0, 0.10};
  t.scenes = {
      {SceneSpan{0, 20}, {250, 240}, {}},  // bright scene
      {SceneSpan{20, 20}, {80, 60}, {}},   // dark scene
      {SceneSpan{40, 20}, {82, 61}, {}},   // nearly identical dark scene
  };
  return t;
}

display::DeviceModel linearDevice() {
  display::DeviceModel d;
  d.name = "linear";
  d.transfer = display::TransferFunction::linear();
  return d;
}

TEST(Runtime, ScheduleLevelsFollowScenes) {
  const BacklightSchedule s = buildSchedule(makeTrack(), 0, linearDevice());
  EXPECT_EQ(s.frameCount, 60u);
  EXPECT_EQ(s.levelAt(0), 250);
  EXPECT_EQ(s.levelAt(19), 250);
  EXPECT_EQ(s.levelAt(20), 80);
  EXPECT_EQ(s.levelAt(59), s.levelAt(40));
}

TEST(Runtime, IdenticalLevelsMerge) {
  // Scenes 2 and 3 resolve to levels 80 and 82 on a linear device -- no
  // merge.  At quality 1 they resolve to 60 and 61 -- still distinct.  But
  // on a coarse device they can merge; emulate with a track whose scenes
  // match exactly.
  AnnotationTrack t = makeTrack();
  t.scenes[2].safeLuma = t.scenes[1].safeLuma;
  const BacklightSchedule s = buildSchedule(t, 0, linearDevice());
  EXPECT_EQ(s.commands.size(), 2u);  // bright, dark (third scene merged)
  EXPECT_EQ(s.switchCount(), 1u);
}

TEST(Runtime, GainMatchesLevel) {
  const display::DeviceModel device = linearDevice();
  const BacklightSchedule s = buildSchedule(makeTrack(), 1, device);
  for (std::uint32_t f : {0u, 25u, 45u}) {
    const double rel = device.transfer.relLuminance(s.levelAt(f));
    EXPECT_NEAR(s.gainAt(f) * rel, 1.0, 1e-9) << "frame " << f;
  }
}

TEST(Runtime, HigherQualityDimsMore) {
  const BacklightSchedule q0 = buildSchedule(makeTrack(), 0, linearDevice());
  const BacklightSchedule q1 = buildSchedule(makeTrack(), 1, linearDevice());
  for (std::uint32_t f = 0; f < 60; f += 10) {
    EXPECT_LE(q1.levelAt(f), q0.levelAt(f)) << "frame " << f;
  }
}

TEST(Runtime, EmptyScheduleDefaults) {
  const BacklightSchedule s;
  EXPECT_EQ(s.levelAt(0), 255);
  EXPECT_DOUBLE_EQ(s.gainAt(0), 1.0);
  EXPECT_EQ(s.switchCount(), 0u);
}

TEST(Runtime, QualityIndexValidation) {
  EXPECT_THROW((void)buildSchedule(makeTrack(), 5, linearDevice()),
               std::out_of_range);
}

TEST(Runtime, MinBacklightLevelApplies) {
  AnnotationTrack t = makeTrack();
  t.scenes[1].safeLuma = {5, 1};  // nearly black scene
  const BacklightSchedule s = buildSchedule(t, 0, linearDevice(), 40);
  EXPECT_GE(s.levelAt(25), 40);
}

TEST(Runtime, ClientWorkIsTiny) {
  // The paper's claim: per scene one multiply and one lookup; a handful of
  // backlight writes for a whole clip.
  const media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kIRobot, 0.05, 48, 36);
  const AnnotationTrack track = annotateClip(clip);
  const BacklightSchedule schedule =
      buildSchedule(track, 2, linearDevice());
  const ClientWorkEstimate est = estimateClientWork(track, schedule);
  EXPECT_EQ(est.multiplies, track.scenes.size());
  EXPECT_EQ(est.tableLookups, track.scenes.size());
  EXPECT_LE(est.backlightWrites, track.scenes.size());
  // Versus per-pixel work: decoding alone touches w*h pixels per frame.
  EXPECT_LT(est.multiplies + est.tableLookups + est.backlightWrites,
            clip.frames.size());
}

TEST(Runtime, LevelAtOutOfRangeFrameUsesLastCommand) {
  const BacklightSchedule s = buildSchedule(makeTrack(), 0, linearDevice());
  // Frames beyond the clip keep the last level (defensive behaviour).
  EXPECT_EQ(s.levelAt(1000), s.levelAt(59));
}

TEST(Runtime, FullBacklightScheduleIsTheBaseline) {
  const BacklightSchedule s = fullBacklightSchedule(120);
  EXPECT_EQ(s.frameCount, 120u);
  EXPECT_EQ(s.switchCount(), 0u);
  for (std::uint32_t f : {0u, 60u, 119u}) {
    EXPECT_EQ(s.levelAt(f), 255);
    EXPECT_DOUBLE_EQ(s.gainAt(f), 1.0);
  }
}

TEST(Runtime, SlewLimiterBoundsDeltaAndNeverDims) {
  // A schedule with a hard 250 -> 60 -> 250 cliff, limited to 10/frame:
  // every consecutive-frame delta is bounded, and no frame ever drops BELOW
  // the desired level (dimming below plan could clip compensated pixels).
  BacklightSchedule s;
  s.frameCount = 120;
  s.commands = {{0, 250, 1.0, {}}, {30, 60, 2.5, {}}, {90, 250, 1.0, {}}};
  const BacklightSchedule limited = limitSlewRate(s, 10);
  ASSERT_EQ(limited.frameCount, s.frameCount);
  for (std::uint32_t f = 0; f < s.frameCount; ++f) {
    EXPECT_GE(limited.levelAt(f), s.levelAt(f)) << "frame " << f;
    if (f > 0) {
      const int delta = static_cast<int>(limited.levelAt(f)) -
                        static_cast<int>(limited.levelAt(f - 1));
      EXPECT_LE(delta, 10) << "frame " << f;
      EXPECT_GE(delta, -10) << "frame " << f;
    }
    // Gains ride along unchanged from the input plan.
    EXPECT_DOUBLE_EQ(limited.gainAt(f), s.gainAt(f)) << "frame " << f;
  }
  // The brightening ramp is anticipated: the frame before the second cliff
  // is already within one step of 250.
  EXPECT_GE(limited.levelAt(89), 240);
  // Deep in the dark span the limiter converges to the desired level.
  EXPECT_EQ(limited.levelAt(60), 60);
}

TEST(Runtime, SlewLimiterIsIdentityWhenDisabledOrAlreadySmooth) {
  const BacklightSchedule s = buildSchedule(makeTrack(), 0, linearDevice());
  const BacklightSchedule off = limitSlewRate(s, 0);
  ASSERT_EQ(off.commands.size(), s.commands.size());
  for (std::size_t i = 0; i < s.commands.size(); ++i) {
    EXPECT_EQ(off.commands[i].frame, s.commands[i].frame);
    EXPECT_EQ(off.commands[i].level, s.commands[i].level);
  }
  // A constant schedule passes through any limit untouched.
  const BacklightSchedule flat = fullBacklightSchedule(50);
  const BacklightSchedule limited = limitSlewRate(flat, 1);
  for (std::uint32_t f = 0; f < 50; ++f) {
    EXPECT_EQ(limited.levelAt(f), 255);
  }
}

TEST(Runtime, SlewLimiterHandlesDegenerateSchedules) {
  EXPECT_EQ(limitSlewRate(BacklightSchedule{}, 8).commands.size(), 0u);
  BacklightSchedule one;
  one.frameCount = 1;
  one.commands = {{0, 37, 1.0, {}}};
  const BacklightSchedule limited = limitSlewRate(one, 8);
  EXPECT_EQ(limited.levelAt(0), 37);
}

}  // namespace
}  // namespace anno::core
