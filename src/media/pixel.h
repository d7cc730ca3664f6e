// Pixel types and the luminance model used throughout the library.
//
// The paper (Sec. 4.1) computes pixel luminance as Y = rR + gG + bB with the
// standard constants; we use ITU-R BT.601 weights, the convention of the
// MPEG-1/2 era players the paper built on (Berkeley MPEG tools).
#pragma once

#include <cstdint>

namespace anno::media {

/// 8-bit interleaved RGB pixel (the 64K-colour PDA panels of the paper are
/// RGB565; we keep full 8-bit channels).
struct Rgb8 {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  friend constexpr bool operator==(const Rgb8&, const Rgb8&) = default;
};

/// BT.601 luma weights (paper Sec. 4.1: "Y = rR + gG + bB, where r, g, b are
/// known constants").
inline constexpr double kLumaR = 0.299;
inline constexpr double kLumaG = 0.587;
inline constexpr double kLumaB = 0.114;

/// Luminance of an RGB pixel in [0, 255], full double precision.
[[nodiscard]] constexpr double luminance(const Rgb8& p) noexcept {
  return kLumaR * p.r + kLumaG * p.g + kLumaB * p.b;
}

/// Luminance rounded to the nearest 8-bit code value.
[[nodiscard]] constexpr std::uint8_t luma8(const Rgb8& p) noexcept {
  const double y = luminance(p) + 0.5;
  return static_cast<std::uint8_t>(y >= 255.0 ? 255 : y);
}

/// Clamp a double to the representable 8-bit pixel range and round.
[[nodiscard]] constexpr std::uint8_t clamp8(double v) noexcept {
  if (v <= 0.0) return 0;
  if (v >= 255.0) return 255;
  return static_cast<std::uint8_t>(v + 0.5);
}

/// Saturating per-channel scale: C' = min(255, C*k).  This is the contrast
/// enhancement primitive of the paper (Sec. 4.1, "C' = min(1, C*k)" on
/// normalized values).
[[nodiscard]] constexpr Rgb8 scale(const Rgb8& p, double k) noexcept {
  return Rgb8{clamp8(p.r * k), clamp8(p.g * k), clamp8(p.b * k)};
}

/// Saturating per-channel offset: C' = min(255, C + delta).  Brightness
/// compensation primitive (paper Sec. 4.1, "C' = min(1, C + deltaC)").
[[nodiscard]] constexpr Rgb8 offset(const Rgb8& p, double delta) noexcept {
  return Rgb8{clamp8(p.r + delta), clamp8(p.g + delta), clamp8(p.b + delta)};
}

/// True if any channel would clip when scaled by k.
[[nodiscard]] constexpr bool clipsWhenScaled(const Rgb8& p, double k) noexcept {
  return p.r * k > 255.0 || p.g * k > 255.0 || p.b * k > 255.0;
}

}  // namespace anno::media
