// 8x8 fixed-point DCT used by the AV2 block codec (media/codec).
//
// The paper's player is built on the Berkeley MPEG tools; our substrate
// codec is a block-DCT codec (MJPEG-like) which exercises the same decode
// path structure (entropy decode -> dequant -> IDCT -> colour) that loads
// the PDA's CPU during playback.  The transforms are JPEG's "islow"
// integer DCT with 13-bit constants, so they give the same result on
// every compiler and SIMD level.
#pragma once

#include <array>
#include <cstdint>

namespace anno::media {

/// One 8x8 block of Q5 samples (32 times the 8-bit value), row-major.
using SampleBlock = std::array<std::int16_t, 64>;
/// One 8x8 block of orthonormal DCT coefficients of the 8-bit-scale
/// samples, row-major: fixed point with 8 fractional bits out of
/// forwardDct, integers into inverseDct.
using CoefBlock = std::array<std::int32_t, 64>;

// Both transforms run through the dispatched kernel table (media/kernels),
// identical at every SIMD level.

/// Forward 8x8 DCT-II: 256 times the orthonormal coefficients of
/// spatial / 32, rounded.  Requires |spatial| <= 8192.
[[nodiscard]] CoefBlock forwardDct(const SampleBlock& spatial);

/// Inverse 8x8 DCT of integer coefficients as Q5 samples, saturated to
/// int16.  Requires |freq| <= 2304.
[[nodiscard]] SampleBlock inverseDct(const CoefBlock& freq);

/// Zigzag scan order of an 8x8 block (JPEG order).
[[nodiscard]] const std::array<int, 64>& zigzagOrder();

}  // namespace anno::media
