// Runtime-dispatched SIMD kernels for the per-pixel / per-frame hot paths.
//
// Every frame served by this repo funnels through a handful of tight loops:
// luma extraction, 256-bin histogram build, min/max/sum stats, and the
// per-frame histogram earth-mover's distance of the EMD scene detector.
// The compensation transform C' = min(1, C*k) is not a kernel: it maps 256
// codes to 256 codes, so compensate/ applies it as one 256-entry lookup
// table, and clipped pixels are counted from the max-channel histogram.
// The codec's fixed-point block transforms, quantiser and colour conversion
// live here too: they are the serving hot path (every cache miss encodes a
// clip, every client decodes one).
// This layer provides one scalar reference implementation per kernel plus
// an AVX2 (x86-64) variant behind a single dispatch table selected once at
// startup via CPUID.  Every other CPU (x86-64 without AVX2, aarch64) runs
// the scalar reference.  The histogram tail scans are the same loop at
// every level, so they are plain functions rather than table entries.
//
// THE BIT-IDENTICAL CONTRACT (DESIGN.md sec. 12): every variant of every
// kernel produces output byte-identical to the scalar reference, on every
// input, by construction:
//
//   * The two floating-point kernels (frame profile, luma plane) vectorize
//     ACROSS pixels while keeping each pixel's IEEE-754 operation sequence
//     exactly the one the scalar code performs (same multiplies, same
//     adds, same order, no FMA contraction).  Lanes are pixels, so
//     vectorization cannot change any pixel's rounding.
//   * Integer kernels (histogram build/merge, max-channel histogram, EMD
//     numerator) are exact, so accumulation order is irrelevant and any
//     lane decomposition gives the same result.
//   * The codec kernels (8x8 DCT/IDCT, quantisation, YCbCr conversion)
//     are fixed point on int16/int32 lanes.  Every intermediate is proven
//     to fit its lane for the documented input range, so they are exact
//     too, whatever the factorisation or lane layout.  The AVX2
//     transforms multiply-add int16 pass inputs (the direct form
//     detail::kDct): |sample| <= kMaxFdctInput, forward row outputs <=
//     16384, |coefficient| <= kMaxIdctInput and the inverse row pass's
//     high part within +-17217, with every sum within int32.
//     static_asserts beside kDct derive these bounds from the weights, and
//     Kernels.DctAtBasisSignedExtremesMatchesScalar drives every output
//     to them at every level.
//   * The EMD kernel computes an exact integer numerator
//         sum_v | cdfA(v)*totalB - cdfB(v)*totalA |
//     and performs a SINGLE final floating divide by totalA*totalB, so
//     scalar and SIMD agree bit-for-bit (and the result is symmetric in its
//     arguments exactly, which the old incremental-double version was not).
//
// Dispatch is overridable for testing with the ANNO_SIMD environment
// variable (scalar|avx2); an unavailable or unknown request falls back to
// the best available level with a one-line stderr warning.  The engine
// golden suite runs once per available level (tests/engine) and
// tests/media/kernels_test.cpp property-tests every variant against the
// scalar reference.
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

/// Dispatch levels, worst to best.  kAvx2 exists only on x86-64 builds;
/// kScalar always exists.
enum class Level : std::uint8_t { kScalar = 0, kAvx2 = 1 };
inline constexpr std::size_t kLevelCount = 2;

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

/// Codec plane samples are Q5 int16: 32 times the 8-bit value.  Coarser
/// planes cost PSNR at high quality -- the inverse colour matrix amplifies
/// chroma rounding about threefold.
inline constexpr int kPlaneFracBits = 5;
/// Largest |sample| fdct8x8 accepts: the residual of two plane samples
/// fits, and every intermediate of both passes stays below 2^31.
inline constexpr std::int32_t kMaxFdctInput = 256 << kPlaneFracBits;
/// Samples are int16 lanes of the multiply-add transforms.
static_assert(kMaxFdctInput <= INT16_MAX);
/// Fractional bits of the forward transform's coefficients, so the
/// quantiser rounds once, from nearly exact coefficients.
inline constexpr int kCoefFracBits = 8;
/// Largest |coefficient| idct8x8 accepts without int32 overflow.  A valid
/// stream stays below 2050 + 255 / 2 (see media/codec.cpp).
inline constexpr std::int32_t kMaxIdctInput = 2304;
/// Coefficients are int16 lanes of the multiply-add transforms.
static_assert(kMaxIdctInput <= INT16_MAX);
/// Largest |coefficient| quantizeBlock divides exactly.
inline constexpr std::int32_t kMaxQuantInput =
    (1 << (12 + kCoefFracBits)) - (256 << (kCoefFracBits - 1));

/// The divisors (1..255) of a quantizer and, in zigzag order for the
/// quantiser's loads, their rounding offsets and reciprocals:
/// floor(n / d) == (n * recip) >> kQuantShift for 0 <= n < 2^12.
struct QuantTable {
  static constexpr int kQuantShift = 20;
  alignas(32) std::int32_t divisor[64];  ///< row-major
  /// divisor * 2^(kCoefFracBits - 1), half a quantiser step, for rounding
  /// half away from zero; zigzag order.
  alignas(32) std::int32_t half[64];
  /// ceil(2^kQuantShift / divisor); zigzag order.
  alignas(32) std::uint32_t recip[64];
};

/// Builds the table for 64 row-major divisors in [1, 255]; throws
/// std::invalid_argument outside that range.
[[nodiscard]] QuantTable makeQuantTable(const int* divisors);

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

  /// (4) Codec kernels (media/codec), all integer, so every level is
  /// byte-identical by construction.  Plane samples are Q5 int16
  /// (kPlaneFracBits).  Coefficients are orthonormal DCT coefficients of
  /// the 8-bit-scale samples, row-major int32.
  /// fdct8x8: JPEG "islow" 8x8 DCT-II (13-bit constants, rows then
  /// columns) of |spatial| <= kMaxFdctInput, with kCoefFracBits
  /// fractional bits; |freq| <= 2050 * 2^kCoefFracBits.
  void (*fdct8x8)(const std::int16_t* spatial, std::int32_t* freq);
  /// idct8x8: islow inverse (columns then rows) of integer coefficients
  /// |freq| <= kMaxIdctInput, as plane samples saturated to int16.  A
  /// DC-only block comes back as the constant 4 * freq[0], exactly.
  void (*idct8x8)(const std::int32_t* freq, std::int16_t* spatial);
  /// Quantises a forward-transform block and emits it in zigzag order:
  /// zigzagOut[i] = round-half-away(freq[z] / (divisor[z] <<
  /// kCoefFracBits)) with z = zigzagOrder()[i], by a shift and a
  /// reciprocal multiply, exact for |freq| <= kMaxQuantInput.  Returns the
  /// nonzero mask: bit i set iff zigzagOut[i] != 0.
  std::uint64_t (*quantizeBlock)(const std::int32_t* freq,
                                 const QuantTable& table,
                                 std::int32_t* zigzagOut);

  /// (5) Codec colour conversion, integer BT.601 full range.  RGB to three
  /// Q5 planes (Y, Cb, Cr; 2^15-scaled weights, rounded), and back with
  /// 2^13-scaled weights, rounding once to each 8-bit channel.  The
  /// inverse accepts any int16 sample (decoded planes overshoot).
  void (*rgbToYcbcrPlanes)(const Rgb8* px, std::size_t n, std::int16_t* y,
                           std::int16_t* cb, std::int16_t* cr);
  void (*ycbcrPlanesToRgb)(const std::int16_t* y, const std::int16_t* cb,
                           const std::int16_t* cr, std::size_t n, Rgb8* out);
};

/// Smallest 8-bit channel code whose clamp-scale by k (k >= 0) clips, or
/// 256 if none does: the one definition of "a pixel clips".  Derived by
/// probing the EXACT scalar predicate (media::clipsWhenScaled, monotone in
/// the code for k >= 0), so a pixel clips iff its max channel reaches it;
/// compensate::clippedFraction counts clipped pixels from a max-channel
/// histogram that way.
[[nodiscard]] int clipThreshold(double k) noexcept;

/// Tail scans over a 256-bin histogram, one loop at every level.
/// Largest v in [1,255] with sum(counts[v..255]) > budget, else 0: the
/// smallest level with at most `budget` counts above it, the clip-safe
/// luminance scan of core::safeLumaLevels and planForHistogram.
[[nodiscard]] int tailBudgetLevel(const std::uint64_t* counts,
                                  std::uint64_t budget) noexcept;
/// Smallest v with sum(counts[0..v]) > budget, else 255
/// (Histogram::lowPoint body; caller handles the empty histogram).
[[nodiscard]] int lowPoint(const std::uint64_t* counts,
                           std::uint64_t budget) noexcept;
/// Largest v with sum(counts[v..255]) > budget, else 0
/// (Histogram::highPoint body).
[[nodiscard]] int highPoint(const std::uint64_t* counts,
                            std::uint64_t budget) noexcept;

/// The active table.  Selected once on first use: the level the ANNO_SIMD
/// env var names if it is set and available, else the best level the CPU
/// supports.  An acquire pointer load thereafter.
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
