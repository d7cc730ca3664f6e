#include "player/oled.h"

#include <gtest/gtest.h>

#include "core/annotate.h"
#include "media/clipgen.h"

namespace anno::player {
namespace {

struct Rig {
  media::VideoClip clip =
      media::generatePaperClip(media::PaperClip::kIceAge, 0.04, 48, 36);
  core::AnnotationTrack track = core::annotateClip(clip);
  core::SketchTrack sketches =
      core::buildSketchTrack(track, media::profileClip(clip));
  display::EmissiveDisplay panel = display::makeGenericOled();
};

TEST(OledPlan, OnePerSceneWithinBounds) {
  Rig rig;
  const auto plan = planOledDimming(rig.track, rig.sketches);
  ASSERT_EQ(plan.size(), rig.track.scenes.size());
  for (std::size_t s = 0; s < plan.size(); ++s) {
    EXPECT_EQ(plan[s].firstFrame, rig.track.scenes[s].span.firstFrame);
    EXPECT_GE(plan[s].dimFactor, 0.6);
    EXPECT_LE(plan[s].dimFactor, 1.0);
  }
}

TEST(OledPlan, BrighterScenesDimDeeper) {
  // A fixed mean-drop budget is a LARGER relative dim on bright scenes:
  // d = 1 - budget/mean is decreasing in... increasing in mean -- bright
  // scenes keep a HIGHER factor.  But bright scenes draw more power, so
  // the absolute watt savings still concentrate there (verified in the
  // playback test); here we pin the planner arithmetic.
  core::AnnotationTrack track;
  track.clipName = "t";
  track.fps = 12.0;
  track.frameCount = 20;
  track.qualityLevels = {0.0};
  track.scenes = {{core::SceneSpan{0, 10}, {80}, {}},
                  {core::SceneSpan{10, 10}, {240}, {}}};
  core::SketchTrack sketches;
  core::SceneSketch dark;
  dark.bins[2] = 255;  // mean ~40
  core::SceneSketch bright;
  bright.bins[13] = 255;  // mean ~215
  sketches.scenes = {dark, bright};
  OledPlanConfig cfg;
  cfg.maxMeanLumaDrop = 8.0;
  const auto plan = planOledDimming(track, sketches, cfg);
  EXPECT_LT(plan[0].dimFactor, plan[1].dimFactor);
  // Both respect the budget: (1-d)*mean <= 8 (+ sketch quantization).
  EXPECT_NEAR((1.0 - plan[1].dimFactor) * 215.0, 8.0, 1.5);
}

TEST(OledPlayback, SavesPowerWithinQualityBudget) {
  Rig rig;
  OledPlanConfig cfg;
  cfg.maxMeanLumaDrop = 8.0;
  const auto plan = planOledDimming(rig.track, rig.sketches, cfg);
  const OledPlaybackReport r =
      playEmissive(rig.clip, rig.track, plan, rig.panel);
  EXPECT_GT(r.panelSavings(), 0.03) << "bright clip: dimming must pay";
  // The measured mean-luma drop respects the planner's budget (sketch
  // quantization allows ~1 code of slack).
  EXPECT_LE(r.meanLumaDrop, cfg.maxMeanLumaDrop + 1.5);
}

TEST(OledPlayback, LargerBudgetSavesMore) {
  Rig rig;
  OledPlanConfig small;
  small.maxMeanLumaDrop = 3.0;
  OledPlanConfig large;
  large.maxMeanLumaDrop = 20.0;
  const OledPlaybackReport rs = playEmissive(
      rig.clip, rig.track, planOledDimming(rig.track, rig.sketches, small),
      rig.panel);
  const OledPlaybackReport rl = playEmissive(
      rig.clip, rig.track, planOledDimming(rig.track, rig.sketches, large),
      rig.panel);
  EXPECT_GT(rl.panelSavings(), rs.panelSavings());
}

TEST(OledPlayback, ZeroBudgetIsIdentity) {
  Rig rig;
  OledPlanConfig cfg;
  cfg.maxMeanLumaDrop = 0.0;
  const auto plan = planOledDimming(rig.track, rig.sketches, cfg);
  for (const OledSceneDecision& d : plan) {
    EXPECT_DOUBLE_EQ(d.dimFactor, 1.0);
  }
  const OledPlaybackReport r =
      playEmissive(rig.clip, rig.track, plan, rig.panel);
  EXPECT_NEAR(r.panelSavings(), 0.0, 1e-12);
  EXPECT_NEAR(r.meanLumaDrop, 0.0, 1e-9);
}

TEST(OledPlayback, Validation) {
  Rig rig;
  OledPlanConfig bad;
  bad.minDimFactor = 0.0;
  EXPECT_THROW((void)planOledDimming(rig.track, rig.sketches, bad),
               std::invalid_argument);
  core::SketchTrack wrong;
  wrong.scenes.resize(rig.track.scenes.size() + 2);
  EXPECT_THROW((void)planOledDimming(rig.track, wrong),
               std::invalid_argument);
  std::vector<OledSceneDecision> shortPlan(1);
  if (rig.track.scenes.size() > 1) {
    EXPECT_THROW(
        (void)playEmissive(rig.clip, rig.track, shortPlan, rig.panel),
        std::invalid_argument);
  }
}

}  // namespace
}  // namespace anno::player
