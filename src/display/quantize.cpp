#include "display/quantize.h"

#include <cmath>
#include <stdexcept>

namespace anno::display {
namespace {

/// 4x4 Bayer matrix, values 0..15.
constexpr int kBayer4[4][4] = {
    {0, 8, 2, 10}, {12, 4, 14, 6}, {3, 11, 1, 9}, {15, 7, 13, 5}};

/// Quantize an 8-bit value to `bits` (truncation, as RGB565 hardware does)
/// and expand back by bit replication.  `ditherOffset` in [0,1) raises the
/// value by a sub-step amount before truncation (ordered dithering); 0
/// gives the plain idempotent mapping.
std::uint8_t quantizeChannel(int v, int bits, double ditherOffset) {
  const int levels = 1 << bits;
  const int step = 256 / levels;
  int q = (v + static_cast<int>(ditherOffset * step)) / step;
  if (q >= levels) q = levels - 1;
  // Bit-replication expansion (e.g. 5 bits: q<<3 | q>>2).
  const int hi = q << (8 - bits);
  return static_cast<std::uint8_t>(hi | (hi >> bits));
}

}  // namespace

media::Rgb8 toRgb565(const media::Rgb8& p) noexcept {
  return media::Rgb8{quantizeChannel(p.r, 5, 0.0),
                     quantizeChannel(p.g, 6, 0.0),
                     quantizeChannel(p.b, 5, 0.0)};
}

media::Image quantizeRgb565(const media::Image& img, bool dither) {
  if (img.empty()) {
    throw std::invalid_argument("quantizeRgb565: empty image");
  }
  media::Image out(img.width(), img.height(), media::kForOverwrite);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!dither) {
        out(x, y) = toRgb565(img(x, y));
        continue;
      }
      // Ordered dithering: per-pixel threshold in [0,1) from the Bayer
      // matrix replaces the fixed 0.5 rounding offset.
      const double t = (kBayer4[y & 3][x & 3] + 0.5) / 16.0;
      const media::Rgb8& p = img(x, y);
      out(x, y) = media::Rgb8{quantizeChannel(p.r, 5, t),
                              quantizeChannel(p.g, 6, t),
                              quantizeChannel(p.b, 5, t)};
    }
  }
  return out;
}

double quantizationError(const media::Image& original,
                         const media::Image& quantized) {
  if (original.width() != quantized.width() ||
      original.height() != quantized.height() || original.empty()) {
    throw std::invalid_argument("quantizationError: geometry mismatch");
  }
  double sum = 0.0;
  auto po = original.pixels();
  auto pq = quantized.pixels();
  for (std::size_t i = 0; i < po.size(); ++i) {
    sum += std::abs(po[i].r - pq[i].r) + std::abs(po[i].g - pq[i].g) +
           std::abs(po[i].b - pq[i].b);
  }
  return sum / (3.0 * static_cast<double>(po.size()));
}

}  // namespace anno::display
