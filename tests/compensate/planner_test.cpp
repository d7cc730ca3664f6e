#include "compensate/planner.h"

#include <gtest/gtest.h>

#include "media/rng.h"

namespace anno::compensate {
namespace {

display::DeviceModel ipaq() {
  return display::makeDevice(display::KnownDevice::kIpaq5555);
}

display::DeviceModel linearDevice() {
  display::DeviceModel d;
  d.name = "linear";
  d.transfer = display::TransferFunction::linear();
  return d;
}

TEST(Planner, FullRangeSceneNeedsFullBacklight) {
  const CompensationPlan plan = planForLuma(linearDevice(), 255);
  EXPECT_EQ(plan.backlightLevel, 255);
  EXPECT_DOUBLE_EQ(plan.gainK, 1.0);
  EXPECT_DOUBLE_EQ(plan.backlightRel, 1.0);
}

TEST(Planner, GainIsInverseOfAchievedBacklight) {
  // Core invariant: k = 1 / T(level), so L*Y product is preserved.
  for (int luma : {40, 80, 128, 200, 240}) {
    const display::DeviceModel device = ipaq();
    const CompensationPlan plan =
        planForLuma(device, static_cast<std::uint8_t>(luma));
    EXPECT_NEAR(plan.gainK * plan.backlightRel, 1.0, 1e-9) << "luma=" << luma;
    EXPECT_NEAR(plan.lumaCeiling, 255.0 * plan.backlightRel, 1e-9);
  }
}

TEST(Planner, CeilingCoversSceneLuma) {
  // The chosen level must be able to show the scene's safe luminance:
  // lumaCeiling >= sceneLuma.
  for (int luma = 0; luma <= 255; luma += 5) {
    const CompensationPlan plan =
        planForLuma(ipaq(), static_cast<std::uint8_t>(luma));
    EXPECT_GE(plan.lumaCeiling + 1e-9, luma) << "luma=" << luma;
  }
}

TEST(Planner, LevelMonotoneInSceneLuma) {
  int prev = 0;
  for (int luma = 0; luma <= 255; ++luma) {
    const CompensationPlan plan =
        planForLuma(ipaq(), static_cast<std::uint8_t>(luma));
    EXPECT_GE(plan.backlightLevel, prev) << "luma=" << luma;
    prev = plan.backlightLevel;
  }
}

TEST(Planner, MinBacklightLevelRespected) {
  const CompensationPlan plan = planForLuma(ipaq(), 0, 25);
  EXPECT_GE(plan.backlightLevel, 25);
  EXPECT_THROW((void)planForLuma(ipaq(), 100, -1), std::invalid_argument);
  EXPECT_THROW((void)planForLuma(ipaq(), 100, 256), std::invalid_argument);
}

TEST(Planner, ConcaveTransferDimsHarder) {
  // With the iPAQ 5555's concave transfer, the level needed for a given
  // luminance is LOWER than linear -- the device-specific tailoring the
  // paper advocates buys extra savings.
  const CompensationPlan concave = planForLuma(ipaq(), 128);
  const CompensationPlan linear = planForLuma(linearDevice(), 128);
  EXPECT_LT(concave.backlightLevel, linear.backlightLevel);
}

TEST(Planner, HistogramBudgetRespected) {
  media::SplitMix64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    media::Histogram hist;
    const int n = 500 + static_cast<int>(rng.below(2000));
    for (int i = 0; i < n; ++i) {
      hist.add(static_cast<std::uint8_t>(rng.below(256)));
    }
    for (double q : {0.0, 0.05, 0.10, 0.15, 0.20}) {
      const CompensationPlan plan = planForHistogram(ipaq(), hist, q);
      EXPECT_LE(plannedClipFraction(plan, hist), q + 1e-9)
          << "trial=" << trial << " q=" << q;
    }
  }
}

TEST(Planner, ZeroClipPlanClipsNothing) {
  media::Histogram hist;
  hist.add(30, 100);
  hist.add(180, 5);
  const CompensationPlan plan = planForHistogram(ipaq(), hist, 0.0);
  EXPECT_DOUBLE_EQ(plannedClipFraction(plan, hist), 0.0);
}

TEST(Planner, LargerBudgetNeverBrighter) {
  media::Histogram hist;
  media::SplitMix64 rng(8);
  for (int i = 0; i < 3000; ++i) {
    hist.add(static_cast<std::uint8_t>(rng.below(256)));
  }
  int prev = 256;
  for (double q : {0.0, 0.05, 0.10, 0.15, 0.20}) {
    const CompensationPlan plan = planForHistogram(ipaq(), hist, q);
    EXPECT_LE(plan.backlightLevel, prev);
    prev = plan.backlightLevel;
  }
}

TEST(Planner, HistogramValidation) {
  media::Histogram empty;
  EXPECT_THROW((void)planForHistogram(ipaq(), empty, 0.1),
               std::invalid_argument);
  media::Histogram h;
  h.add(10, 1);
  EXPECT_THROW((void)planForHistogram(ipaq(), h, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)planForHistogram(ipaq(), h, 1.0), std::invalid_argument);
}

TEST(Prediction, PerceivedHistogramClampsAtCeiling) {
  media::Histogram hist;
  hist.add(50, 80);
  hist.add(200, 20);
  CompensationPlan plan;
  plan.lumaCeiling = 120.0;
  const media::Histogram perceived = predictPerceivedHistogram(hist, plan);
  EXPECT_EQ(perceived.count(50), 80u);   // unclipped: exact
  EXPECT_EQ(perceived.count(120), 20u);  // clipped: pinned at ceiling
  EXPECT_EQ(perceived.count(200), 0u);
}

TEST(Prediction, EmdZeroWhenNothingClips) {
  media::Histogram hist;
  hist.add(40, 100);
  hist.add(90, 100);
  CompensationPlan plan = planForLuma(ipaq(), 90);
  EXPECT_NEAR(predictPerceivedEmd(hist, plan), 0.0, 1e-9);
}

TEST(Prediction, EmdGrowsWithAggressiveDimming) {
  media::SplitMix64 rng(10);
  media::Histogram hist;
  for (int i = 0; i < 4000; ++i) {
    hist.add(static_cast<std::uint8_t>(rng.below(256)));
  }
  double prev = -1.0;
  for (double q : {0.0, 0.05, 0.10, 0.20, 0.40}) {
    const CompensationPlan plan = planForHistogram(ipaq(), hist, q);
    const double emd = predictPerceivedEmd(hist, plan);
    EXPECT_GE(emd, prev - 1e-9) << "q=" << q;
    prev = emd;
  }
}

TEST(PlannerAmbient, ZeroAmbientMatchesBasePlanner) {
  for (int luma : {40, 120, 200, 255}) {
    const CompensationPlan base =
        planForLuma(ipaq(), static_cast<std::uint8_t>(luma));
    const CompensationPlan amb =
        planForLumaAmbient(ipaq(), static_cast<std::uint8_t>(luma), 0.0);
    EXPECT_EQ(amb.backlightLevel, base.backlightLevel) << "luma=" << luma;
    EXPECT_NEAR(amb.gainK, base.gainK, 1e-9);
    EXPECT_NEAR(amb.lumaCeiling, base.lumaCeiling, 1e-9);
  }
}

TEST(PlannerAmbient, BrighterAmbientDimsDeeper) {
  // Transflective panel: sunlight feeds the reflective path, so the
  // backlight can drop further at equal quality.
  int prev = 256;
  for (double ambient : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    const CompensationPlan plan = planForLumaAmbient(ipaq(), 200, ambient);
    EXPECT_LE(plan.backlightLevel, prev) << "ambient=" << ambient;
    prev = plan.backlightLevel;
  }
  EXPECT_LT(prev, planForLuma(ipaq(), 200).backlightLevel);
}

TEST(PlannerAmbient, TransmissivePanelUnaffected) {
  display::DeviceModel d = ipaq();
  d.panel.type = display::PanelType::kTransmissive;
  const CompensationPlan dark = planForLumaAmbient(d, 180, 0.0);
  const CompensationPlan sunny = planForLumaAmbient(d, 180, 3.0);
  EXPECT_EQ(dark.backlightLevel, sunny.backlightLevel);
}

TEST(PlannerAmbient, PerceivedIntensityStillPreserved) {
  // With gain k and the combined light paths, perceived output for an
  // unclipped pixel equals the dark-room full-backlight reference:
  //   (T(b) + (rho_r/rho_t)*A) * k == 1.
  const display::DeviceModel d = ipaq();
  for (double ambient : {0.0, 0.8, 2.5}) {
    const CompensationPlan plan = planForLumaAmbient(d, 150, ambient);
    const double boost =
        d.panel.reflectance / d.panel.transmittance * ambient;
    if (plan.gainK > 1.0) {
      EXPECT_NEAR((plan.backlightRel + boost) * plan.gainK, 1.0, 1e-9)
          << "ambient=" << ambient;
    }
  }
}

TEST(PlannerAmbient, Validation) {
  EXPECT_THROW((void)planForLumaAmbient(ipaq(), 100, -0.1),
               std::invalid_argument);
  EXPECT_THROW((void)planForLumaAmbient(ipaq(), 100, 0.0, 300),
               std::invalid_argument);
}

TEST(Planner, PaperQualityLevelsConstant) {
  ASSERT_EQ(kPaperQualityLevelCount, 5);
  EXPECT_DOUBLE_EQ(kPaperQualityLevels[0], 0.00);
  EXPECT_DOUBLE_EQ(kPaperQualityLevels[4], 0.20);
}

}  // namespace
}  // namespace anno::compensate
