#include "media/luminance.h"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "core/engine.h"
#include "media/histogram.h"
#include "media/rng.h"

namespace anno::media {
namespace {

Image gradientImage() {
  Image img(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const auto v = static_cast<std::uint8_t>(y * 16 + x);
      img(x, y) = Rgb8{v, v, v};
    }
  }
  return img;
}

TEST(Luminance, LumaPlaneMatchesPerPixel) {
  Image img(3, 1);
  img(0, 0) = Rgb8{255, 0, 0};
  img(1, 0) = Rgb8{0, 255, 0};
  img(2, 0) = Rgb8{12, 34, 56};
  const GrayImage plane = lumaPlane(img);
  EXPECT_EQ(plane(0, 0), luma8(img(0, 0)));
  EXPECT_EQ(plane(1, 0), luma8(img(1, 0)));
  EXPECT_EQ(plane(2, 0), luma8(img(2, 0)));
}

TEST(Luminance, LumaPlaneOfEmptyIsEmpty) {
  EXPECT_TRUE(lumaPlane(Image{}).empty());
}

TEST(Luminance, AnalyzeGradient) {
  const FrameLuminance fl = analyzeLuminance(gradientImage());
  EXPECT_EQ(fl.minLuma, 0);
  EXPECT_EQ(fl.maxLuma, 255);
  EXPECT_EQ(fl.pixelCount, 256u);
  EXPECT_NEAR(fl.meanLuma, 127.5, 0.01);
}

TEST(Luminance, AnalyzeUniform) {
  const Image img(5, 5, Rgb8{80, 80, 80});
  const FrameLuminance fl = analyzeLuminance(img);
  EXPECT_EQ(fl.minLuma, 80);
  EXPECT_EQ(fl.maxLuma, 80);
  EXPECT_DOUBLE_EQ(fl.meanLuma, 80.0);
}

// The clip-safe luminance of a frame -- the level L with at most a fraction
// q of the pixels strictly brighter, the paper's "we allow a fixed percent
// of the very bright pixels to be clipped" -- is what the engine plans
// from: core::safeLumaLevels over the frame's luma histogram.
std::uint8_t clipSafeLevel(const Image& img, double q) {
  return core::safeLumaLevels(Histogram::ofImage(img), {q}).front();
}

TEST(Luminance, ClipSafeZeroFractionIsMax) {
  EXPECT_EQ(clipSafeLevel(gradientImage(), 0.0), 255);
}

TEST(Luminance, ClipSafeTrimsBudget) {
  // Gradient has one pixel per value 0..255; clipping 10% (25.6 pixels)
  // admits values above 230 to clip: safe level is 230.
  EXPECT_EQ(clipSafeLevel(gradientImage(), 0.1), 230);
}

TEST(Luminance, ClipSafeValidatesFraction) {
  EXPECT_THROW((void)clipSafeLevel(gradientImage(), -0.01), std::invalid_argument);
  EXPECT_THROW((void)clipSafeLevel(gradientImage(), 1.0), std::invalid_argument);
}

TEST(Luminance, ClipSafeHistogramOverloadAgrees) {
  // The kernel-built histogram and a per-pixel luma8 count give the same
  // levels.
  SplitMix64 rng(3);
  Image img(32, 32);
  for (Rgb8& p : img.pixels()) {
    const auto v = static_cast<std::uint8_t>(rng.below(256));
    p = Rgb8{v, v, v};
  }
  std::array<std::uint64_t, 256> counts{};
  for (const Rgb8& p : img.pixels()) ++counts[luma8(p)];
  for (double q : {0.0, 0.05, 0.1, 0.2}) {
    EXPECT_EQ(clipSafeLevel(img, q),
              core::safeLumaLevels(Histogram::fromCounts(counts), {q}).front());
  }
}

class ClipSafeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClipSafeProperty, BudgetNeverExceeded) {
  SplitMix64 rng(100 + GetParam());
  Image img(24, 24);
  for (Rgb8& p : img.pixels()) {
    const auto v = static_cast<std::uint8_t>(rng.below(256));
    p = Rgb8{v, v, v};
  }
  for (double q : {0.0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.5}) {
    const std::uint8_t safe = clipSafeLevel(img, q);
    // Count pixels strictly above the safe level: must be <= budget.
    std::size_t above = 0;
    for (const Rgb8& p : img.pixels()) {
      if (luma8(p) > safe) ++above;
    }
    EXPECT_LE(static_cast<double>(above),
              q * static_cast<double>(img.pixelCount()) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomImages, ClipSafeProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace anno::media
