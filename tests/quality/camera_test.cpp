#include "quality/camera.h"

#include <gtest/gtest.h>

#include "display/panel.h"

namespace anno::quality {
namespace {

media::GrayImage ramp(int w = 64, int h = 48) {
  media::GrayImage img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img(x, y) = static_cast<std::uint8_t>(x * 255 / (w - 1));
    }
  }
  return img;
}

TEST(Camera, ResponseIsMonotone) {
  CameraConfig cfg;
  cfg.noiseRms = 0.0;
  cfg.vignetting = 0.0;
  CameraModel cam(cfg);
  const media::GrayImage shot = cam.capture(ramp());
  // Along the centre row, output must be non-decreasing in input.
  const int y = shot.height() / 2;
  for (int x = 1; x < shot.width(); ++x) {
    EXPECT_GE(shot(x, y), shot(x - 1, y)) << "x=" << x;
  }
}

TEST(Camera, ResponseIsNonlinear) {
  CameraConfig cfg;
  cfg.noiseRms = 0.0;
  cfg.vignetting = 0.0;
  CameraModel cam(cfg);
  media::GrayImage mid(8, 8, 128);
  const media::GrayImage shot = cam.capture(mid);
  // Gamma-style response: mid-gray maps well above 128.
  EXPECT_GT(shot(4, 4), 160);
}

TEST(Camera, LinearizeInvertsResponse) {
  CameraConfig cfg;
  cfg.noiseRms = 0.0;
  cfg.vignetting = 0.0;
  CameraModel cam(cfg);
  for (int v = 0; v <= 255; v += 15) {
    media::GrayImage patch(8, 8, static_cast<std::uint8_t>(v));
    const media::GrayImage shot = cam.capture(patch);
    EXPECT_NEAR(cam.linearize(shot(4, 4)), v / 255.0, 0.01) << "v=" << v;
  }
}

TEST(Camera, VignettingDarkensCorners) {
  CameraConfig cfg;
  cfg.noiseRms = 0.0;
  cfg.vignetting = 0.3;
  CameraModel cam(cfg);
  media::GrayImage flat(65, 65, 200);
  const media::GrayImage shot = cam.capture(flat);
  EXPECT_GT(shot(32, 32), shot(0, 0));
  EXPECT_GT(shot(32, 32), shot(64, 64));
}

TEST(Camera, NoiseIsBoundedAndSeeded) {
  CameraConfig cfg;
  cfg.noiseRms = 1.5;
  cfg.seed = 9;
  CameraModel a(cfg), b(cfg);
  media::GrayImage flat(32, 32, 100);
  const media::GrayImage sa = a.capture(flat);
  const media::GrayImage sb = b.capture(flat);
  EXPECT_EQ(sa, sb);  // deterministic for seed
}

TEST(Camera, ConfigValidation) {
  CameraConfig bad;
  bad.exposure = 0.0;
  EXPECT_THROW(CameraModel{bad}, std::invalid_argument);
  bad = CameraConfig{};
  bad.vignetting = 1.0;
  EXPECT_THROW(CameraModel{bad}, std::invalid_argument);
  bad = CameraConfig{};
  bad.noiseRms = -1.0;
  EXPECT_THROW(CameraModel{bad}, std::invalid_argument);
  CameraModel cam;
  EXPECT_THROW((void)cam.capture(media::GrayImage{}), std::invalid_argument);
}

TEST(Camera, SnapshotIncorporatesBacklight) {
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  CameraConfig cfg;
  cfg.noiseRms = 0.0;
  cfg.vignetting = 0.0;
  CameraModel cam(cfg);
  media::Image frame(16, 16, media::Rgb8{200, 200, 200});
  const media::GrayImage bright = cam.snapshot(device, frame, 255);
  const media::GrayImage dim = cam.snapshot(device, frame, 80);
  EXPECT_GT(bright(8, 8), dim(8, 8));
}

TEST(CameraMeter, TracksIdealMeterClosely) {
  const display::DeviceModel device =
      display::makeDevice(display::KnownDevice::kIpaq5555);
  display::IdealMeter ideal;
  CameraConfig cfg;
  cfg.noiseRms = 0.5;
  CameraMeter camMeter(cfg);
  // Both meters report on their own (different) scales; compare ratios.
  const double idealRatio = ideal.measure(device, 255, 128) /
                            ideal.measure(device, 255, 255);
  const double camRatio = camMeter.measure(device, 255, 128) /
                          camMeter.measure(device, 255, 255);
  EXPECT_NEAR(camRatio, idealRatio, 0.05);
}

TEST(CameraMeter, PatchSizeValidation) {
  EXPECT_THROW(CameraMeter(CameraConfig{}, 4), std::invalid_argument);
}

}  // namespace
}  // namespace anno::quality
