// Luminance analysis of frames: luma planes and the per-frame statistics the
// annotation pipeline feeds on (Sec. 4.3 of the paper).
#pragma once

#include <cstdint>

#include "media/image.h"

namespace anno::media {

/// Extracts the BT.601 luma plane of an RGB image.
[[nodiscard]] GrayImage lumaPlane(const Image& img);

/// Per-frame luminance summary.  `maxLuma` drives the paper's scene
/// detection.
struct FrameLuminance {
  double meanLuma = 0.0;      ///< average luminance, [0,255]
  std::uint8_t minLuma = 0;   ///< darkest pixel
  std::uint8_t maxLuma = 0;   ///< brightest pixel (paper's "max luminance")
  std::size_t pixelCount = 0;

  friend bool operator==(const FrameLuminance&,
                         const FrameLuminance&) = default;
};

/// Computes the frame luminance summary in one pass.
[[nodiscard]] FrameLuminance analyzeLuminance(const Image& img);

}  // namespace anno::media
