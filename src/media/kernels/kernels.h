// Runtime-dispatched SIMD kernels for the per-pixel / per-frame hot paths.
//
// Every frame served by this repo funnels through a handful of tight loops:
// luma extraction, 256-bin histogram build, min/max/sum stats, the
// compensation transform C' = min(1, C*k), clipped-pixel counting, and the
// per-frame histogram earth-mover's distance of the EMD scene detector.
// The toy codec's block transforms, quantiser and colour conversion live
// here too: they are the serving hot path (every cache miss encodes a
// clip, every client decodes one).
// This layer provides one scalar reference implementation per kernel plus
// SSE2/AVX2 (x86-64) and NEON (aarch64) variants behind a single dispatch
// table selected once at startup via CPUID.
//
// THE BIT-IDENTICAL CONTRACT (DESIGN.md sec. 12): every variant of every
// kernel produces output byte-identical to the scalar reference, on every
// input, by construction:
//
//   * Floating-point kernels (frame profile, pixel scale) vectorize ACROSS
//     pixels while keeping each pixel's IEEE-754 operation sequence exactly
//     the one the scalar code performs (same multiplies, same adds, same
//     order, no FMA contraction).  Lanes are pixels, so vectorization
//     cannot change any pixel's rounding.
//   * Integer kernels (histogram build/merge, EMD numerator, tail scans,
//     clipped counting) are exact, so accumulation order is irrelevant and
//     any lane decomposition gives the same result.
//   * The codec kernels (8x8 DCT/IDCT, quantisation, YCbCr conversion)
//     vectorize ACROSS outputs: each DCT output keeps the scalar
//     `acc = 0.0; acc += a*c` chain in the scalar summation order, and
//     quantisation keeps the correctly rounded divide, replacing lround
//     with an exact truncate-and-step rounding.
//   * The EMD kernel computes an exact integer numerator
//         sum_v | cdfA(v)*totalB - cdfB(v)*totalA |
//     and performs a SINGLE final floating divide by totalA*totalB, so
//     scalar and SIMD agree bit-for-bit (and the result is symmetric in its
//     arguments exactly, which the old incremental-double version was not).
//
// Dispatch is overridable for testing with the ANNO_SIMD environment
// variable (scalar|sse2|avx2|neon) or the ANNO_SIMD CMake cache knob; an
// unavailable or unknown request falls back to the best available level
// with a one-line stderr warning.  The engine golden suite runs once per
// available level (tests/engine) and tests/media/kernels_test.cpp
// property-tests every variant against the scalar reference.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "media/pixel.h"

namespace anno::media::kernels {

/// Exact 128-bit unsigned integer for the EMD numerator (GCC/Clang).
using Uint128 = unsigned __int128;

/// Dispatch levels, worst to best.  kSse2 and kAvx2 exist only on x86-64
/// builds, kNeon only on aarch64; kScalar always exists.
enum class Level : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };
inline constexpr std::size_t kLevelCount = 4;

[[nodiscard]] const char* levelName(Level level) noexcept;
[[nodiscard]] std::optional<Level> parseLevel(std::string_view name) noexcept;

/// Result of the fused per-frame profile pass: 256-bin luma histogram plus
/// min/max/sum of the 8-bit luma codes, all from ONE walk over the pixels.
/// For an empty span minLuma == maxLuma == 0 and everything else is zero.
struct FrameProfile {
  std::array<std::uint64_t, 256> hist{};
  std::uint64_t lumaSum = 0;  ///< exact integer sum of luma8 codes
  std::uint8_t minLuma = 0;
  std::uint8_t maxLuma = 0;
};

/// The dispatch table.  All function pointers are non-null in every
/// registered table.  Histogram arrays are 256 bins of uint64.
struct KernelTable {
  Level level = Level::kScalar;

  /// (1) Fused frame profile over interleaved RGB pixels: luma8 conversion
  /// + histogram + min/max/sum in one pass.
  void (*profileRgb)(const Rgb8* px, std::size_t n, FrameProfile& out);
  /// Fused frame profile over an 8-bit gray plane.
  void (*profileGray)(const std::uint8_t* px, std::size_t n,
                      FrameProfile& out);
  /// Max-channel histogram: hist[max(r,g,b)] per pixel (clip prediction).
  void (*maxChannelHistogram)(const Rgb8* px, std::size_t n,
                              std::uint64_t* hist);
  /// BT.601 luma plane extraction (out[i] = luma8(px[i])).
  void (*lumaPlane)(const Rgb8* px, std::size_t n, std::uint8_t* out);

  /// (2) Histogram accumulate: dst[v] += src[v] for all 256 bins.
  void (*histAccumulate)(std::uint64_t* dst, const std::uint64_t* src);

  /// (3) Exact EMD numerator: sum_v |cdfA(v)*totalB - cdfB(v)*totalA|.
  /// Mathematically exact for any operand (wide-integer fallback above the
  /// vector fast-path range), so all variants agree bit-for-bit.
  Uint128 (*emdNumerator)(const std::uint64_t* a, std::uint64_t totalA,
                          const std::uint64_t* b, std::uint64_t totalB);

  /// (4) Compensation transform: per-channel saturating scale
  /// dst[i] = media::scale(src[i], k).  k must be >= 0.
  void (*scalePixels)(const Rgb8* src, std::size_t n, double k, Rgb8* dst);
  /// Number of pixels with media::clipsWhenScaled(px[i], k).  k >= 0.
  std::size_t (*countClipped)(const Rgb8* px, std::size_t n, double k);

  /// (5) Tail scans over a 256-bin histogram.
  /// Smallest v in [1,255] with sum(counts[v..255]) > budget, else 0 --
  /// the clip-safe luminance scan of clipSafeLuma / safeLumaLevels /
  /// planForHistogram.
  int (*tailBudgetLevel)(const std::uint64_t* counts, std::uint64_t budget);
  /// First v from 0 upward with cumulative count > budget, else 255
  /// (Histogram::lowPoint body; caller handles the empty histogram).
  int (*lowPoint)(const std::uint64_t* counts, std::uint64_t budget);
  /// First v from 255 downward with cumulative count > budget, else 0.
  int (*highPoint)(const std::uint64_t* counts, std::uint64_t budget);

  /// (6) Codec block transforms on 64 row-major doubles (media/codec).
  /// Orthonormal 8x8 DCT-II and its inverse, separable rows then columns.
  /// Every output is `acc = 0.0; acc += a*c` over the scalar summation
  /// order, so vector variants lay outputs across lanes, never sums.
  void (*fdct8x8)(const double* spatial, double* freq);
  void (*idct8x8)(const double* freq, double* spatial);
  /// Quantises a DCT block and emits it in zigzag order:
  /// zigzagOut[i] = round-half-away(freq[z] / quant[z]) with z =
  /// zigzagOrder()[i] and a correctly rounded divide.  Requires
  /// |freq / quant| < 2^31 (codec blocks stay below 2^11).
  void (*quantizeBlock)(const double* freq, const int* quant,
                        int* zigzagOut);

  /// (7) Codec colour conversion, BT.601 full range.  RGB to three double
  /// planes (Y, Cb, Cr), and back with the clamp8 rounding per channel.
  void (*rgbToYcbcrPlanes)(const Rgb8* px, std::size_t n, double* y,
                           double* cb, double* cr);
  void (*ycbcrPlanesToRgb)(const double* y, const double* cb,
                           const double* cr, std::size_t n, Rgb8* out);
};

/// Smallest 8-bit channel code whose clamp-scale by k (k >= 0) clips, or
/// 256 if none does.  Derived by probing the EXACT scalar predicate
/// (monotone in the code for k >= 0), so it is shared ground truth for the
/// SIMD countClipped variants and for the O(256) histogram-based
/// clipped-fraction fast path (compensate::clippedFraction).
[[nodiscard]] int clipThreshold(double k) noexcept;

/// The active table.  Selected once on first use: ANNO_SIMD env var if set,
/// else the ANNO_SIMD CMake default if non-empty, else the best level the
/// CPU supports.  A relaxed pointer load thereafter.
[[nodiscard]] const KernelTable& active() noexcept;
[[nodiscard]] Level activeLevel() noexcept;

/// True if `level` is compiled in AND supported by this CPU.
[[nodiscard]] bool available(Level level) noexcept;
/// All available levels, ascending (kScalar always first).
[[nodiscard]] std::vector<Level> availableLevels();
/// Table for an explicit level, or nullptr if unavailable.  Used by the
/// differential tests and bench_simd_kernels; production code goes through
/// active().
[[nodiscard]] const KernelTable* tableFor(Level level) noexcept;

/// RAII dispatch override for tests: swaps the active table, restores on
/// destruction.  Not thread-safe against concurrent overrides; intended
/// for single-threaded test set-up (concurrent READERS of active() are
/// fine -- the pointer swap is atomic).
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level);
  ~ScopedLevel();
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  const KernelTable* previous_;
};

}  // namespace anno::media::kernels
