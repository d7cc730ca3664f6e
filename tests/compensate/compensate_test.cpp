#include "compensate/compensate.h"

#include <gtest/gtest.h>

#include "media/luminance.h"
#include "media/rng.h"

namespace anno::compensate {
namespace {

media::Image randomImage(std::uint64_t seed, int w = 24, int h = 18) {
  media::SplitMix64 rng(seed);
  media::Image img(w, h);
  for (auto& p : img.pixels()) {
    p = media::Rgb8{static_cast<std::uint8_t>(rng.below(200)),
                    static_cast<std::uint8_t>(rng.below(200)),
                    static_cast<std::uint8_t>(rng.below(200))};
  }
  return img;
}

TEST(ContrastEnhance, ScalesUnclippedPixels) {
  media::Image img(2, 1);
  img(0, 0) = media::Rgb8{50, 80, 100};
  img(1, 0) = media::Rgb8{200, 10, 10};
  const media::Image out = contrastEnhance(img, 2.0);
  EXPECT_EQ(out(0, 0), (media::Rgb8{100, 160, 200}));
  EXPECT_EQ(out(1, 0), (media::Rgb8{255, 20, 20}));  // red channel clips
}

TEST(ContrastEnhance, GainOneIsIdentity) {
  const media::Image img = randomImage(1);
  EXPECT_EQ(contrastEnhance(img, 1.0), img);
}

TEST(ContrastEnhance, Validation) {
  const media::Image img = randomImage(2);
  EXPECT_THROW((void)contrastEnhance(img, 0.9), std::invalid_argument);
  EXPECT_THROW((void)contrastEnhance(media::Image{}, 1.5),
               std::invalid_argument);
}

TEST(ContrastEnhance, PerChannelPreservesHueOfUnclipped) {
  media::Image img(1, 1, media::Rgb8{60, 90, 120});
  const media::Image out = contrastEnhance(img, 2.0);
  const media::Rgb8 p = out(0, 0);
  // Ratios preserved exactly when no channel clips.
  EXPECT_NEAR(static_cast<double>(p.g) / p.r, 1.5, 0.02);
  EXPECT_NEAR(static_cast<double>(p.b) / p.r, 2.0, 0.02);
}

TEST(BrightnessCompensate, AddsOffset) {
  media::Image img(1, 1, media::Rgb8{100, 200, 250});
  const media::Image out = brightnessCompensate(img, 20.0);
  EXPECT_EQ(out(0, 0), (media::Rgb8{120, 220, 255}));
}

TEST(BrightnessCompensate, ZeroIsIdentity) {
  const media::Image img = randomImage(4);
  EXPECT_EQ(brightnessCompensate(img, 0.0), img);
}

TEST(BrightnessCompensate, Validation) {
  const media::Image img = randomImage(5);
  EXPECT_THROW((void)brightnessCompensate(img, -1.0), std::invalid_argument);
  EXPECT_THROW((void)brightnessCompensate(media::Image{}, 1.0),
               std::invalid_argument);
}

TEST(ToneCurve, SoftKneeIsMonotone) {
  for (double k : {1.0, 1.5, 2.5, 4.0}) {
    const ToneCurve curve = softKneeToneCurve(k);
    for (int y = 1; y < 256; ++y) {
      EXPECT_GE(curve[y], curve[y - 1]) << "k=" << k << " y=" << y;
    }
  }
}

TEST(ToneCurve, LinearBelowKnee) {
  const ToneCurve curve = softKneeToneCurve(2.0, 0.8);
  // Knee output 204, knee input 102: below that, out = 2*y exactly.
  for (int y = 0; y <= 100; y += 10) {
    EXPECT_NEAR(curve[y], 2.0 * y, 1.0) << "y=" << y;
  }
}

TEST(ToneCurve, RollsOffInsteadOfClipping) {
  const ToneCurve curve = softKneeToneCurve(2.0, 0.8);
  // Hard scaling clips everything above 127 to 255; the soft knee keeps
  // bright inputs distinguishable.
  EXPECT_LT(curve[200], 255);
  EXPECT_GT(curve[250], curve[200]);
}

TEST(ToneCurve, UnityGainIsNearIdentity) {
  const ToneCurve curve = softKneeToneCurve(1.0, 1.0);
  for (int y = 0; y < 256; ++y) {
    EXPECT_NEAR(curve[y], y, 1.0);
  }
}

TEST(ToneCurve, Validation) {
  EXPECT_THROW((void)softKneeToneCurve(0.5), std::invalid_argument);
  EXPECT_THROW((void)softKneeToneCurve(2.0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)softKneeToneCurve(2.0, 1.5), std::invalid_argument);
}

TEST(ToneCurve, ApplyTransformsLuma) {
  media::Image img(1, 1, media::Rgb8{80, 80, 80});
  const ToneCurve curve = softKneeToneCurve(2.0, 0.9);
  const media::Image out = applyToneCurve(img, curve);
  EXPECT_NEAR(media::luminance(out(0, 0)), 160.0, 3.0);
  EXPECT_THROW((void)applyToneCurve(media::Image{}, curve),
               std::invalid_argument);
}

TEST(ToneCurve, MseMeasuresPerceivedError) {
  media::Histogram dark;
  dark.add(50, 100);
  const double k = 2.0;
  // Dark content sits below the knee: perceived output equals input,
  // near-zero error.
  EXPECT_LT(toneCurveMse(dark, softKneeToneCurve(k, 0.85), k), 1.5);
  // Bright content gets compressed: visible perceived error.
  media::Histogram bright;
  bright.add(240, 100);
  EXPECT_GT(toneCurveMse(bright, softKneeToneCurve(k, 0.85), k), 25.0);
  EXPECT_THROW((void)toneCurveMse(dark, softKneeToneCurve(k), 0.5),
               std::invalid_argument);
}

TEST(ClippedFraction, CountsSaturatingPixels) {
  media::Image img(2, 1);
  img(0, 0) = media::Rgb8{100, 100, 100};  // clips at k > 2.55
  img(1, 0) = media::Rgb8{200, 200, 200};  // clips at k > 1.275
  const media::Histogram maxHist = media::Histogram::ofMaxChannel(img);
  EXPECT_DOUBLE_EQ(clippedFraction(maxHist, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clippedFraction(maxHist, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(clippedFraction(maxHist, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(
      clippedFraction(media::Histogram::ofMaxChannel(media::Image{}), 2.0),
      0.0);
}

}  // namespace
}  // namespace anno::compensate
