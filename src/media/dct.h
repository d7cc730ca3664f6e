// 8x8 type-II DCT / type-III inverse DCT used by the toy intra codec.
//
// The paper's player is built on the Berkeley MPEG tools; our substrate
// codec is an intra-only block-DCT codec (MJPEG-like) which exercises the
// same decode path structure (entropy decode -> dequant -> IDCT -> colour)
// that loads the PDA's CPU during playback.
#pragma once

#include <array>

namespace anno::media {

/// One 8x8 block of coefficients or samples, row-major.
using Block8x8 = std::array<double, 64>;

// Both transforms run through the dispatched kernel table
// (media/kernels), bit-identical at every SIMD level.

/// Forward 8x8 DCT-II with orthonormal scaling.
[[nodiscard]] Block8x8 forwardDct(const Block8x8& spatial);

/// Inverse 8x8 DCT (DCT-III) with orthonormal scaling; exact inverse of
/// forwardDct up to floating-point rounding.
[[nodiscard]] Block8x8 inverseDct(const Block8x8& freq);

/// Zigzag scan order of an 8x8 block (JPEG order).
[[nodiscard]] const std::array<int, 64>& zigzagOrder();

}  // namespace anno::media
