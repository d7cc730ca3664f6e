#include "quality/camera.h"

#include <cmath>
#include <stdexcept>

#include "display/panel.h"

namespace anno::quality {

CameraModel::CameraModel(CameraConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.exposure <= 0.0 || cfg_.responseGamma <= 0.0 ||
      cfg_.vignetting < 0.0 || cfg_.vignetting >= 1.0 || cfg_.noiseRms < 0.0) {
    throw std::invalid_argument("CameraModel: invalid configuration");
  }
}

media::GrayImage CameraModel::capture(const media::GrayImage& panelOutput) {
  if (panelOutput.empty()) {
    throw std::invalid_argument("CameraModel::capture: empty input");
  }
  const int w = panelOutput.width();
  const int h = panelOutput.height();
  media::GrayImage out(w, h);
  const double cx = (w - 1) / 2.0;
  const double cy = (h - 1) / 2.0;
  const double maxR2 = cx * cx + cy * cy;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      // Scene radiance in [0,1].
      double radiance = panelOutput(x, y) / 255.0;
      radiance *= cfg_.exposure;
      // Cos^4-style vignetting approximated radially.
      if (cfg_.vignetting > 0.0 && maxR2 > 0.0) {
        const double r2 = ((x - cx) * (x - cx) + (y - cy) * (y - cy)) / maxR2;
        radiance *= 1.0 - cfg_.vignetting * r2;
      }
      if (radiance > 1.0) radiance = 1.0;
      // Monotonic non-linear response.
      const double response = std::pow(radiance, 1.0 / cfg_.responseGamma);
      const double code = response * 255.0 + rng_.gaussian(0.0, cfg_.noiseRms);
      out(x, y) = media::clamp8(code);
    }
  }
  return out;
}

media::GrayImage CameraModel::snapshot(const display::DeviceModel& device,
                                       const media::Image& frame,
                                       int backlightLevel, double ambientRel) {
  const double backlightRel = device.transfer.relLuminance(backlightLevel);
  return capture(
      display::displayedLuma(device.panel, frame, backlightRel, ambientRel));
}

double CameraModel::linearize(std::uint8_t code) const {
  const double response = code / 255.0;
  return std::pow(response, cfg_.responseGamma) / cfg_.exposure;
}

CameraMeter::CameraMeter(CameraConfig cfg, int patchSize)
    : camera_(cfg), patchSize_(patchSize) {
  if (patchSize_ < 8) {
    throw std::invalid_argument("CameraMeter: patch too small");
  }
}

double CameraMeter::measure(const display::DeviceModel& device,
                            std::uint8_t grayValue, int backlightLevel) {
  const media::Image patch(patchSize_, patchSize_,
                           media::Rgb8{grayValue, grayValue, grayValue});
  const media::GrayImage shot =
      camera_.snapshot(device, patch, backlightLevel);
  // Average the linearized centre crop (half-size window) to dodge the
  // vignetted corners, as one would with a real camera.
  const int x0 = patchSize_ / 4;
  const int x1 = patchSize_ - patchSize_ / 4;
  double sum = 0.0;
  int n = 0;
  for (int y = x0; y < x1; ++y) {
    for (int x = x0; x < x1; ++x) {
      sum += camera_.linearize(shot(x, y));
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

}  // namespace anno::quality
