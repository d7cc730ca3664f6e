// Shared scalar kernel bodies.  Each SIMD variant reuses these for ragged
// tails and for operand ranges outside its fast path, so "what a kernel
// computes" is defined in exactly one place.  Everything here is inline and
// ISA-independent; it must stay compilable in TUs built with and without
// vector flags.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "media/kernels/kernels.h"
#include "media/pixel.h"

namespace anno::media::kernels {

// Variant tables, each defined in its own TU (compiled with the matching
// ISA flags) and registered by kernels.cpp.
[[nodiscard]] const KernelTable& scalarTable() noexcept;
#if defined(__x86_64__) || defined(_M_X64)
[[nodiscard]] const KernelTable& sse2Table() noexcept;
[[nodiscard]] const KernelTable& avx2Table() noexcept;
#elif defined(__aarch64__)
[[nodiscard]] const KernelTable& neonTable() noexcept;
#endif

}  // namespace anno::media::kernels

namespace anno::media::kernels::detail {

/// Orthonormal DCT-II basis: c[k][n] = c(k) * cos((2n+1) k pi / 16), with
/// c(0) = sqrt(1/8) and c(k>0) = sqrt(2/8); ct is its transpose.  Built once
/// (std::cos at run time, so every level multiplies by the same doubles).
struct DctBasis {
  alignas(32) double c[8][8];
  alignas(32) double ct[8][8];
};
[[nodiscard]] const DctBasis& dctBasis() noexcept;

/// JPEG zigzag scan order of an 8x8 block.
inline constexpr std::array<int, 64> kZigzag = [] {
  std::array<int, 64> z{};
  int idx = 0;
  for (int s = 0; s < 15; ++s) {
    if (s % 2 == 0) {  // up-right
      for (int y = std::min(s, 7); y >= 0 && s - y <= 7; --y) {
        z[idx++] = y * 8 + (s - y);
      }
    } else {  // down-left
      for (int x = std::min(s, 7); x >= 0 && s - x <= 7; --x) {
        z[idx++] = (s - x) * 8 + x;
      }
    }
  }
  return z;
}();

// Scalar codec kernels (scalar.cpp): the reference every variant matches,
// and the entries of levels that have no vector version of a kernel.
void fdct8x8Scalar(const double* spatial, double* freq);
void idct8x8Scalar(const double* freq, double* spatial);
void quantizeBlockScalar(const double* freq, const int* quant,
                         int* zigzagOut);
void rgbToYcbcrPlanesScalar(const Rgb8* px, std::size_t n, double* y,
                            double* cb, double* cr);
void ycbcrPlanesToRgbScalar(const double* y, const double* cb,
                            const double* cr, std::size_t n, Rgb8* out);

/// Accumulates `n` RGB pixels into an in-progress profile.  `minAcc` /
/// `maxAcc` are int running values (255 / 0 sentinels when empty) so the
/// caller can fold vector-phase partials in before the tail.
inline void profileRgbRange(const Rgb8* px, std::size_t n, FrameProfile& out,
                            int& minAcc, int& maxAcc) {
  for (std::size_t i = 0; i < n; ++i) {
    const int y = luma8(px[i]);
    ++out.hist[static_cast<std::size_t>(y)];
    out.lumaSum += static_cast<std::uint64_t>(y);
    if (y < minAcc) minAcc = y;
    if (y > maxAcc) maxAcc = y;
  }
}

/// Folds sentinel-based running min/max into the profile (empty -> 0/0).
inline void finishProfile(FrameProfile& out, std::size_t n, int minAcc,
                          int maxAcc) {
  out.minLuma = n == 0 ? 0 : static_cast<std::uint8_t>(minAcc);
  out.maxLuma = n == 0 ? 0 : static_cast<std::uint8_t>(maxAcc);
}

inline void profileGrayRange(const std::uint8_t* px, std::size_t n,
                             FrameProfile& out, int& minAcc, int& maxAcc) {
  for (std::size_t i = 0; i < n; ++i) {
    const int y = px[i];
    ++out.hist[static_cast<std::size_t>(y)];
    out.lumaSum += static_cast<std::uint64_t>(y);
    if (y < minAcc) minAcc = y;
    if (y > maxAcc) maxAcc = y;
  }
}

inline void maxChannelRange(const Rgb8* px, std::size_t n,
                            std::uint64_t* hist) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t m =
        std::max(px[i].r, std::max(px[i].g, px[i].b));
    ++hist[m];
  }
}

inline void lumaPlaneRange(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = luma8(px[i]);
}

inline void scaleRange(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = scale(src[i], k);
}

inline std::size_t countClippedRange(const Rgb8* px, std::size_t n,
                                     double k) {
  std::size_t clipped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (clipsWhenScaled(px[i], k)) ++clipped;
  }
  return clipped;
}

/// Smallest 8-bit code whose scaled value clips, derived from the EXACT
/// scalar predicate (clipsWhenScaled is monotone in the channel value for
/// k >= 0), or 256 if no code clips.  SIMD clip counting reduces to a byte
/// comparison against this threshold; sharing the derivation keeps every
/// variant bit-identical to the per-pixel double predicate.
inline int clipThreshold(double k) {
  // Monotone predicate: binary search would work, but 256 probes of a
  // double multiply cost nothing next to the pixel loop they replace.
  for (int c = 0; c <= 255; ++c) {
    if (static_cast<double>(c) * k > 255.0) return c;
  }
  return 256;
}

/// Exact EMD numerator via 128-bit products -- the reference for any
/// operand size.  Each |cdfA*totalB - cdfB*totalA| is at most
/// totalA*totalB, so the 256-term sum stays within Uint128 whenever
/// totalA*totalB <= 2^120 -- totals up to 2^60 samples each, far beyond
/// any frame or scene mass this system produces.
inline Uint128 emdNumeratorExact(const std::uint64_t* a, std::uint64_t totalA,
                                 const std::uint64_t* b,
                                 std::uint64_t totalB) {
  std::uint64_t cdfA = 0;
  std::uint64_t cdfB = 0;
  Uint128 acc = 0;
  for (int v = 0; v < 256; ++v) {
    cdfA += a[v];
    cdfB += b[v];
    const Uint128 pa = static_cast<Uint128>(cdfA) * totalB;
    const Uint128 pb = static_cast<Uint128>(cdfB) * totalA;
    acc += pa >= pb ? pa - pb : pb - pa;
  }
  return acc;
}

/// Largest total for which the 64-bit EMD fast path is overflow-free:
/// per-bin |cdfA*totalB - cdfB*totalA| <= totalA*totalB <= 2^54, and the
/// 256-term sum <= 255 * 2^54 < 2^62.
inline constexpr std::uint64_t kEmdFastMaxTotal = 1ull << 27;

inline int tailBudgetLevelRange(const std::uint64_t* counts,
                                std::uint64_t budget) {
  std::uint64_t above = 0;
  for (int v = 255; v >= 1; --v) {
    above += counts[v];
    if (above > budget) return v;
  }
  return 0;
}

inline int lowPointRange(const std::uint64_t* counts, std::uint64_t budget) {
  std::uint64_t seen = 0;
  for (int v = 0; v < 256; ++v) {
    seen += counts[v];
    if (seen > budget) return v;
  }
  return 255;
}

inline int highPointRange(const std::uint64_t* counts, std::uint64_t budget) {
  std::uint64_t seen = 0;
  for (int v = 255; v >= 0; --v) {
    seen += counts[v];
    if (seen > budget) return v;
  }
  return 0;
}

inline void histAccumulateRange(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; ++v) dst[v] += src[v];
}

}  // namespace anno::media::kernels::detail
