#include "media/pixel.h"

#include <gtest/gtest.h>

namespace anno::media {
namespace {

TEST(Pixel, LumaWeightsSumToOne) {
  EXPECT_NEAR(kLumaR + kLumaG + kLumaB, 1.0, 1e-12);
}

TEST(Pixel, LuminanceOfPrimaries) {
  EXPECT_NEAR(luminance(Rgb8{255, 0, 0}), 255.0 * kLumaR, 1e-9);
  EXPECT_NEAR(luminance(Rgb8{0, 255, 0}), 255.0 * kLumaG, 1e-9);
  EXPECT_NEAR(luminance(Rgb8{0, 0, 255}), 255.0 * kLumaB, 1e-9);
}

TEST(Pixel, LuminanceOfGrayEqualsGray) {
  for (int g = 0; g <= 255; g += 17) {
    const auto v = static_cast<std::uint8_t>(g);
    EXPECT_NEAR(luminance(Rgb8{v, v, v}), g, 1e-9) << "gray=" << g;
    EXPECT_EQ(luma8(Rgb8{v, v, v}), v);
  }
}

TEST(Pixel, Luma8RoundsAndSaturates) {
  EXPECT_EQ(luma8(Rgb8{255, 255, 255}), 255);
  EXPECT_EQ(luma8(Rgb8{0, 0, 0}), 0);
}

TEST(Pixel, Clamp8Boundaries) {
  EXPECT_EQ(clamp8(-5.0), 0);
  EXPECT_EQ(clamp8(0.0), 0);
  EXPECT_EQ(clamp8(254.4), 254);
  EXPECT_EQ(clamp8(254.6), 255);
  EXPECT_EQ(clamp8(255.0), 255);
  EXPECT_EQ(clamp8(1e9), 255);
}

TEST(Pixel, ScaleIsSaturating) {
  const Rgb8 p{100, 200, 50};
  const Rgb8 s = scale(p, 2.0);
  EXPECT_EQ(s.r, 200);
  EXPECT_EQ(s.g, 255);  // 400 clips
  EXPECT_EQ(s.b, 100);
}

TEST(Pixel, ScaleByOneIsIdentity) {
  const Rgb8 p{12, 34, 56};
  EXPECT_EQ(scale(p, 1.0), p);
}

TEST(Pixel, OffsetIsSaturating) {
  const Rgb8 p{250, 100, 0};
  const Rgb8 o = offset(p, 10.0);
  EXPECT_EQ(o.r, 255);
  EXPECT_EQ(o.g, 110);
  EXPECT_EQ(o.b, 10);
}

TEST(Pixel, ClipsWhenScaledMatchesScaleSaturation) {
  const Rgb8 p{100, 128, 60};
  EXPECT_FALSE(clipsWhenScaled(p, 1.9));   // 128*1.9 = 243.2
  EXPECT_TRUE(clipsWhenScaled(p, 2.1));    // 128*2.1 = 268.8
}

}  // namespace
}  // namespace anno::media
