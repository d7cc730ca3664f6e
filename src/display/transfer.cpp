#include "display/transfer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace anno::display {
namespace {

std::array<double, 256> normalizeMonotone(std::array<double, 256> lut) {
  // Monotonize first, normalize second: inputs may arrive on an arbitrary
  // meter scale (camera characterization), so clamping to [0,1] before
  // dividing by the top would flatten every bright sample.
  double runMax = 0.0;
  for (double& v : lut) {
    v = std::max(v, 0.0);
    runMax = std::max(runMax, v);
    v = runMax;
  }
  if (lut.back() <= 0.0) {
    throw std::invalid_argument("TransferFunction: top of LUT must be > 0");
  }
  const double top = lut.back();
  for (double& v : lut) v /= top;
  return lut;
}

}  // namespace

TransferFunction::TransferFunction() {
  static const std::shared_ptr<const Lut> kLinear = [] {
    auto lut = std::make_shared<Lut>();
    for (int i = 0; i < 256; ++i) (*lut)[i] = i / 255.0;
    return lut;
  }();
  lut_ = kLinear;
}

TransferFunction::TransferFunction(const Lut& lut)
    : lut_(std::make_shared<const Lut>(normalizeMonotone(lut))) {}

TransferFunction TransferFunction::fromLut(std::span<const double> lut256) {
  if (lut256.size() != 256) {
    throw std::invalid_argument("TransferFunction::fromLut: need 256 entries");
  }
  std::array<double, 256> lut{};
  std::copy(lut256.begin(), lut256.end(), lut.begin());
  return TransferFunction(lut);
}

TransferFunction TransferFunction::linear() { return TransferFunction(); }

TransferFunction TransferFunction::gamma(double g) {
  if (g <= 0.0) {
    throw std::invalid_argument("TransferFunction::gamma: g must be > 0");
  }
  std::array<double, 256> lut{};
  for (int i = 0; i < 256; ++i) lut[i] = std::pow(i / 255.0, g);
  return TransferFunction(lut);
}

TransferFunction TransferFunction::ccfl(double threshold, double g) {
  if (threshold < 0.0 || threshold >= 1.0) {
    throw std::invalid_argument("TransferFunction::ccfl: bad threshold");
  }
  std::array<double, 256> lut{};
  for (int i = 0; i < 256; ++i) {
    const double x = i / 255.0;
    lut[i] = x <= threshold
                 ? 0.0
                 : std::pow((x - threshold) / (1.0 - threshold), g);
  }
  return TransferFunction(lut);
}

TransferFunction TransferFunction::fitFromSamples(
    std::span<const std::pair<int, double>> samples) {
  std::vector<std::pair<int, double>> pts(samples.begin(), samples.end());
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            pts.end());
  if (pts.size() < 2) {
    throw std::invalid_argument(
        "TransferFunction::fitFromSamples: need >= 2 distinct levels");
  }
  for (const auto& [lvl, lum] : pts) {
    if (lvl < 0 || lvl > 255) {
      throw std::invalid_argument(
          "TransferFunction::fitFromSamples: level out of [0,255]");
    }
    (void)lum;
  }
  std::array<double, 256> lut{};
  // Linear interpolation between sample points; flat extrapolation outside.
  std::size_t seg = 0;
  for (int i = 0; i < 256; ++i) {
    if (i <= pts.front().first) {
      lut[i] = pts.front().second;
      continue;
    }
    if (i >= pts.back().first) {
      lut[i] = pts.back().second;
      continue;
    }
    while (seg + 1 < pts.size() && pts[seg + 1].first < i) ++seg;
    const auto& [x0, y0] = pts[seg];
    const auto& [x1, y1] = pts[seg + 1];
    const double t = static_cast<double>(i - x0) / (x1 - x0);
    lut[i] = y0 + t * (y1 - y0);
  }
  return TransferFunction(lut);
}

double TransferFunction::relLuminance(int level) const {
  if (level < 0 || level > 255) {
    throw std::invalid_argument("TransferFunction: level out of [0,255]");
  }
  return (*lut_)[level];
}

std::uint8_t TransferFunction::minimumLevelFor(
    double targetRelLuminance) const {
  const double target = std::clamp(targetRelLuminance, 0.0, 1.0);
  // LUT is monotone: binary search for the first level >= target.
  const Lut& lut = *lut_;
  const auto it = std::lower_bound(lut.begin(), lut.end(), target);
  if (it == lut.end()) return 255;
  return static_cast<std::uint8_t>(it - lut.begin());
}

}  // namespace anno::display
