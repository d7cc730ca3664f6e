#include "media/luminance.h"

#include <stdexcept>

#include "media/kernels/kernels.h"

namespace anno::media {

GrayImage lumaPlane(const Image& img) {
  if (img.empty()) return {};
  GrayImage out(img.width(), img.height());
  kernels::active().lumaPlane(img.pixels().data(), img.pixelCount(),
                              out.pixels().data());
  return out;
}

FrameLuminance analyzeLuminance(const Image& img) {
  FrameLuminance fl;
  fl.pixelCount = img.pixelCount();
  if (fl.pixelCount == 0) return fl;
  kernels::FrameProfile profile;
  kernels::active().profileRgb(img.pixels().data(), fl.pixelCount, profile);
  fl.minLuma = profile.minLuma;
  fl.maxLuma = profile.maxLuma;
  // Exact integer sum, one final divide.  Identical to the old running
  // double sum (integer partial sums stay exactly representable far past
  // any real frame size) but order-independent, so SIMD lane decomposition
  // cannot perturb it.
  fl.meanLuma = static_cast<double>(profile.lumaSum) /
                static_cast<double>(fl.pixelCount);
  return fl;
}

std::uint8_t clipSafeLuma(const std::uint64_t (&counts)[256],
                          std::uint64_t totalPixels, double clipFraction) {
  if (clipFraction < 0.0 || clipFraction >= 1.0) {
    throw std::invalid_argument("clipSafeLuma: clipFraction must be in [0,1)");
  }
  if (totalPixels == 0) return 0;
  // Largest budget of pixels we may clip; the chosen level L is the smallest
  // value with at most `budget` pixels strictly above it.
  const auto budget =
      static_cast<std::uint64_t>(clipFraction * static_cast<double>(totalPixels));
  return static_cast<std::uint8_t>(kernels::tailBudgetLevel(counts, budget));
}

std::uint8_t clipSafeLuma(const Image& img, double clipFraction) {
  kernels::FrameProfile profile;
  kernels::active().profileRgb(img.pixels().data(), img.pixelCount(), profile);
  return clipSafeLuma(
      *reinterpret_cast<const std::uint64_t(*)[256]>(profile.hist.data()),
      img.pixelCount(), clipFraction);
}

}  // namespace anno::media
