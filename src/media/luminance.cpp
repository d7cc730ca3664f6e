#include "media/luminance.h"

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

}  // namespace anno::media
