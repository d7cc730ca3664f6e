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
[[nodiscard]] const KernelTable& avx2Table() noexcept;
#endif

}  // namespace anno::media::kernels

namespace anno::media::kernels::detail {

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

// Scalar colour conversions (scalar.cpp) that the AVX2 variants run on
// their ragged tails.
void rgbToYcbcrPlanesScalar(const Rgb8* px, std::size_t n,
                            const std::uint8_t* table, std::int16_t* y,
                            std::int16_t* cb, std::int16_t* cr);
void ycbcrPlanesToRgbScalar(const std::int16_t* y, const std::int16_t* cb,
                            const std::int16_t* cr, std::size_t n, Rgb8* out);

// ---- Codec fixed-point constants, shared by every level ----------------

/// islow constants: FIX(x) = round(x * 2^13), named as in libjpeg.
inline constexpr int kConstBits = 13;
inline constexpr std::int32_t kFix0_298631336 = 2446;
inline constexpr std::int32_t kFix0_390180644 = 3196;
inline constexpr std::int32_t kFix0_541196100 = 4433;
inline constexpr std::int32_t kFix0_765366865 = 6270;
inline constexpr std::int32_t kFix0_899976223 = 7373;
inline constexpr std::int32_t kFix1_175875602 = 9633;
inline constexpr std::int32_t kFix1_501321110 = 12299;
inline constexpr std::int32_t kFix1_847759065 = 15137;
inline constexpr std::int32_t kFix1_961570560 = 16069;
inline constexpr std::int32_t kFix2_053119869 = 16819;
inline constexpr std::int32_t kFix2_562915447 = 20995;
inline constexpr std::int32_t kFix3_072711026 = 25172;

/// Fractional bits kept between the two passes of each transform.  The
/// forward input is Q5 (five bits above libjpeg's 8-bit samples), so
/// libjpeg's PASS1_BITS = 2 would overflow int32; with -2 the worst case
/// over every input in range -- the L1 norm of each intermediate's linear
/// form times the input bound -- is 0.64 * 2^31.  The inverse keeps 3 for
/// precision and splits its row pass to stay in range (idctRowPass).
inline constexpr int kFdctPass1Bits = 3 - kPlaneFracBits;
inline constexpr int kIdctPass1Bits = 3;
/// The forward transform's output shift: Q5 input (x32) through the islow
/// normalisation (x8) to orthonormal coefficients with kCoefFracBits.
inline constexpr int kFdctOutShift = 3 + kPlaneFracBits - kCoefFracBits;

/// RGB8 -> planes: weights scaled by 2^15 (each triple sums to 2^15 for Y
/// and to 0 for Cb/Cr, so grey v maps to exactly (v, 128, 128) in plane
/// units); the sum is rounded and shifted down to kPlaneFracBits.
inline constexpr std::int32_t kYR = 9798, kYG = 19234, kYB = 3736;
inline constexpr std::int32_t kCbR = -5529, kCbG = -10855, kCbB = 16384;
inline constexpr std::int32_t kCrR = 16384, kCrG = -13720, kCrB = -2664;
inline constexpr int kToPlaneShift = 15 - kPlaneFracBits;
inline constexpr std::int32_t kToPlaneRound = 1 << (kToPlaneShift - 1);
/// Adds the chroma offset 128 before the shift.
inline constexpr std::int32_t kToChromaRound =
    kToPlaneRound + (128 << 15);

/// Planes -> RGB8: weights scaled by 2^13, rounded and shifted by 13 plus
/// kPlaneFracBits.  The chroma offsets fold into the constants, so
/// R = (8192 Y + 11485 Cr + kRBias) >> kToRgbShift and so on, then clamp
/// to 0..255.  No int16 input can overflow: |sum| < 2^30.
inline constexpr std::int32_t kRgbY = 8192;
inline constexpr std::int32_t kRCr = 11485, kGCb = -2819, kGCr = -5850,
                              kBCb = 14516;
inline constexpr int kToRgbShift = 13 + kPlaneFracBits;
inline constexpr std::int32_t kToRgbRound = 1 << (kToRgbShift - 1);
inline constexpr std::int32_t kChroma0 = 128 << kPlaneFracBits;
inline constexpr std::int32_t kRBias = kToRgbRound - kChroma0 * kRCr;
inline constexpr std::int32_t kGBias = kToRgbRound - kChroma0 * (kGCb + kGCr);
inline constexpr std::int32_t kBBias = kToRgbRound - kChroma0 * kBCb;

/// One islow 1-D forward pass: out[k] for k = 0..7 from inputs d[0..7],
/// each a lane vector of independent transforms (V = std::int32_t in the
/// scalar reference).  O supplies add/sub/mul-by-constant/descale/shl on
/// V.  DC and AC outputs are descaled by dcShift and acShift; a negative
/// dcShift shifts the DC left instead (libjpeg's PASS1_BITS in pass 1).
/// The scalar reference runs this body; the AVX2 level computes the same
/// integers in direct form (kDct below).
template <class O, class V>
[[gnu::always_inline]] inline void fdctPass(const V* d, V* out, int dcShift,
                                            int acShift) {
  const V tmp0 = O::add(d[0], d[7]);
  const V tmp7 = O::sub(d[0], d[7]);
  const V tmp1 = O::add(d[1], d[6]);
  const V tmp6 = O::sub(d[1], d[6]);
  const V tmp2 = O::add(d[2], d[5]);
  const V tmp5 = O::sub(d[2], d[5]);
  const V tmp3 = O::add(d[3], d[4]);
  const V tmp4 = O::sub(d[3], d[4]);
  // Even part.
  const V tmp10 = O::add(tmp0, tmp3);
  const V tmp13 = O::sub(tmp0, tmp3);
  const V tmp11 = O::add(tmp1, tmp2);
  const V tmp12 = O::sub(tmp1, tmp2);
  const auto dc = [dcShift](V v) {
    return dcShift > 0 ? O::descale(v, dcShift)
                       : dcShift < 0 ? O::shl(v, -dcShift) : v;
  };
  out[0] = dc(O::add(tmp10, tmp11));
  out[4] = dc(O::sub(tmp10, tmp11));
  const V z1 = O::mul(O::add(tmp12, tmp13), kFix0_541196100);
  out[2] = O::descale(O::add(z1, O::mul(tmp13, kFix0_765366865)), acShift);
  out[6] = O::descale(O::sub(z1, O::mul(tmp12, kFix1_847759065)), acShift);
  // Odd part.
  const V z5 = O::mul(O::add(O::add(tmp4, tmp6), O::add(tmp5, tmp7)),
                      kFix1_175875602);
  const V o1 = O::mul(O::add(tmp4, tmp7), -kFix0_899976223);
  const V o2 = O::mul(O::add(tmp5, tmp6), -kFix2_562915447);
  const V o3 = O::add(O::mul(O::add(tmp4, tmp6), -kFix1_961570560), z5);
  const V o4 = O::add(O::mul(O::add(tmp5, tmp7), -kFix0_390180644), z5);
  out[7] = O::descale(
      O::add(O::add(O::mul(tmp4, kFix0_298631336), o1), o3), acShift);
  out[5] = O::descale(
      O::add(O::add(O::mul(tmp5, kFix2_053119869), o2), o4), acShift);
  out[3] = O::descale(
      O::add(O::add(O::mul(tmp6, kFix3_072711026), o2), o3), acShift);
  out[1] = O::descale(
      O::add(O::add(O::mul(tmp7, kFix1_501321110), o1), o4), acShift);
}

/// One islow 1-D inverse pass: out[n] for n = 0..7 from coefficients
/// in[0..7], every output descaled by `shift` (0: the raw sums).
template <class O, class V>
[[gnu::always_inline]] inline void idctPass(const V* in, V* out, int shift) {
  // Even part.
  const V z1 = O::mul(O::add(in[2], in[6]), kFix0_541196100);
  const V tmp2 = O::sub(z1, O::mul(in[6], kFix1_847759065));
  const V tmp3 = O::add(z1, O::mul(in[2], kFix0_765366865));
  const V tmp0 = O::shl(O::add(in[0], in[4]), kConstBits);
  const V tmp1 = O::shl(O::sub(in[0], in[4]), kConstBits);
  const V tmp10 = O::add(tmp0, tmp3);
  const V tmp13 = O::sub(tmp0, tmp3);
  const V tmp11 = O::add(tmp1, tmp2);
  const V tmp12 = O::sub(tmp1, tmp2);
  // Odd part.
  const V z5 = O::mul(O::add(O::add(in[7], in[3]), O::add(in[5], in[1])),
                      kFix1_175875602);
  const V o1 = O::mul(O::add(in[7], in[1]), -kFix0_899976223);
  const V o2 = O::mul(O::add(in[5], in[3]), -kFix2_562915447);
  const V o3 = O::add(O::mul(O::add(in[7], in[3]), -kFix1_961570560), z5);
  const V o4 = O::add(O::mul(O::add(in[5], in[1]), -kFix0_390180644), z5);
  const V t0 = O::add(O::add(O::mul(in[7], kFix0_298631336), o1), o3);
  const V t1 = O::add(O::add(O::mul(in[5], kFix2_053119869), o2), o4);
  const V t2 = O::add(O::add(O::mul(in[3], kFix3_072711026), o2), o3);
  const V t3 = O::add(O::add(O::mul(in[1], kFix1_501321110), o1), o4);
  const auto done = [shift](V v) {
    return shift > 0 ? O::descale(v, shift) : v;
  };
  out[0] = done(O::add(tmp10, t3));
  out[7] = done(O::sub(tmp10, t3));
  out[1] = done(O::add(tmp11, t2));
  out[6] = done(O::sub(tmp11, t2));
  out[2] = done(O::add(tmp12, t1));
  out[5] = done(O::sub(tmp12, t1));
  out[3] = done(O::add(tmp13, t0));
  out[4] = done(O::sub(tmp13, t0));
}

/// Pass shifts: the row pass of the forward transform keeps
/// kFdctPass1Bits, the column pass lands on orthonormal coefficients; the
/// inverse keeps kIdctPass1Bits and lands on plane samples.
inline constexpr int kFdctRowDc = -kFdctPass1Bits;
inline constexpr int kFdctRowAc = kConstBits - kFdctPass1Bits;
inline constexpr int kFdctColDc = kFdctPass1Bits + kFdctOutShift;
inline constexpr int kFdctColAc = kConstBits + kFdctPass1Bits + kFdctOutShift;
inline constexpr int kIdctColShift = kConstBits - kIdctPass1Bits;
inline constexpr int kIdctRowShift =
    kConstBits + kIdctPass1Bits + 3 - kPlaneFracBits;

/// The inverse row pass.  Its input carries kIdctPass1Bits fractional
/// bits, too many for the pass's int32 sums, so it runs on the split
/// v = 2^b h + l (h = v >> b, 0 <= l < 2^b): the raw sums A of h stay
/// within 0.49 * 2^31 and those of l (B) within 2^21, and
/// floor((2^b A + B + r) / 2^n) = floor((A + floor((B + r) / 2^b)) /
/// 2^(n - b)) for the rounding r = 2^(n - 1), exactly.
template <class O, class V>
[[gnu::always_inline]] inline void idctRowPass(const V* in, V* out) {
  constexpr int b = kIdctPass1Bits;
  V hi[8];
  V lo[8];
  for (int k = 0; k < 8; ++k) {
    hi[k] = O::sra(in[k], b);
    lo[k] = O::sub(in[k], O::shl(hi[k], b));
  }
  V a[8];
  V c[8];
  idctPass<O>(hi, a, 0);
  idctPass<O>(lo, c, 0);
  for (int x = 0; x < 8; ++x) {
    out[x] = O::sra(
        O::add(a[x], O::sra(O::add(c[x], O::constant(1 << (kIdctRowShift - 1))),
                            b)),
        kIdctRowShift - b);
  }
}

/// The islow passes in direct form.  Multiplying out fdctPass's
/// factorisation, output k of a forward pass is the raw sum
///   sum_x kDct[k][x] * d[x]
/// and output x of idctPass is sum_k kDct[k][x] * in[k]: the same integers
/// (neither form overflows), so lanes that multiply-add int16 pairs
/// reproduce the reference exactly.  Rows 0 and 4 (the DC terms) carry
/// 2^kConstBits, so a forward pass descales every output by its AC shift:
/// descale(2^13 v, n) is descale(v, n - 13), or v << (13 - n) when
/// n <= 13, the reference's DC step.  Row k is even about x = 3.5 for even
/// k and odd for odd k, which is the butterfly the factorisation uses.
inline constexpr std::array<std::array<std::int32_t, 8>, 8> kDct = [] {
  constexpr std::int32_t d = 1 << kConstBits;
  constexpr std::int32_t a = kFix0_541196100 + kFix0_765366865;
  constexpr std::int32_t b = kFix0_541196100;
  constexpr std::int32_t c = kFix0_541196100 - kFix1_847759065;
  constexpr std::int32_t z = kFix1_175875602;
  // Rows 0, 2, 4, 6 on d[i] + d[7 - i] and rows 1, 3, 5, 7 on
  // d[i] - d[7 - i], i = 0..3.
  constexpr std::int32_t half[8][4] = {
      {d, d, d, d},
      {kFix1_501321110 - kFix0_899976223 - kFix0_390180644 + z, z,
       z - kFix0_390180644, z - kFix0_899976223},
      {a, b, -b, -a},
      {z, kFix3_072711026 - kFix2_562915447 - kFix1_961570560 + z,
       z - kFix2_562915447, z - kFix1_961570560},
      {d, -d, -d, d},
      {z - kFix0_390180644, z - kFix2_562915447,
       kFix2_053119869 - kFix2_562915447 - kFix0_390180644 + z, z},
      {b, c, -c, -b},
      {z - kFix0_899976223, z - kFix1_961570560, z,
       kFix0_298631336 - kFix0_899976223 - kFix1_961570560 + z},
  };
  std::array<std::array<std::int32_t, 8>, 8> m{};
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 4; ++i) {
      m[k][i] = half[k][i];
      m[k][7 - i] = k % 2 == 0 ? half[k][i] : -half[k][i];
    }
  }
  return m;
}();
static_assert(kFdctRowAc - kFdctRowDc == kConstBits &&
              kFdctColAc - kFdctColDc == kConstBits);

/// Lane bounds of the direct form.  Each raw sum is at most the L1 norm
/// of its weights times the input bound; lanes that hold pass inputs as
/// int16 need every input within int16, and every raw sum within int32.
inline constexpr std::int64_t kFdctMaxL1 = [] {
  std::int64_t m = 0;
  for (const auto& row : kDct) {
    std::int64_t s = 0;
    for (const std::int32_t w : row) s += w < 0 ? -w : w;
    m = std::max(m, s);
  }
  return m;
}();
inline constexpr std::int64_t kIdctMaxL1 = [] {
  std::int64_t m = 0;
  for (int x = 0; x < 8; ++x) {
    std::int64_t s = 0;
    for (const auto& row : kDct) s += row[x] < 0 ? -row[x] : row[x];
    m = std::max(m, s);
  }
  return m;
}();
constexpr std::int64_t descaleBound(std::int64_t raw, int shift) {
  return (raw + (std::int64_t{1} << (shift - 1))) >> shift;
}
/// Largest |output| of the forward row pass: the column pass's input.
inline constexpr std::int64_t kFdctRowOutMax =
    descaleBound(kFdctMaxL1 * kMaxFdctInput, kFdctRowAc);
/// Largest |column output| of the inverse, and of its high part h, the
/// row pass's input (floor division reaches one further below zero).
inline constexpr std::int64_t kIdctColOutMax =
    descaleBound(kIdctMaxL1 * kMaxIdctInput, kIdctColShift);
inline constexpr std::int64_t kIdctRowHiMax =
    (kIdctColOutMax >> kIdctPass1Bits) + 1;
static_assert(kFdctMaxL1 * kMaxFdctInput + (1 << (kFdctRowAc - 1)) <=
                  INT32_MAX &&
              kFdctRowOutMax <= INT16_MAX &&
              kFdctMaxL1 * kFdctRowOutMax + (1 << (kFdctColAc - 1)) <=
                  INT32_MAX,
              "forward: row outputs fit int16 and column sums int32");
static_assert(kIdctMaxL1 * kMaxIdctInput + (1 << (kIdctColShift - 1)) <=
                  INT32_MAX &&
              kIdctRowHiMax <= INT16_MAX &&
              kIdctMaxL1 * kIdctRowHiMax +
                      ((kIdctMaxL1 * ((1 << kIdctPass1Bits) - 1) +
                        (1 << (kIdctRowShift - 1))) >>
                       kIdctPass1Bits) <=
                  INT32_MAX,
              "inverse: column sums fit int32, h int16 and row sums int32");

/// Round-half-away quantisation of coefficient c (kCoefFracBits = f) by
/// divisor d: floor((|c| + d 2^(f-1)) / (d 2^f)) =
/// floor(floor((|c| + d 2^(f-1)) / 2^f) / d), the inner division a shift
/// and the outer one a reciprocal multiply.
inline std::int32_t quantize(std::int32_t c, std::int32_t half,
                             std::uint32_t recip) {
  const auto n = (static_cast<std::uint32_t>(c < 0 ? -c : c) +
                  static_cast<std::uint32_t>(half)) >>
                 kCoefFracBits;
  const auto q = static_cast<std::int32_t>((n * recip) >>
                                           QuantTable::kQuantShift);
  return c < 0 ? -q : q;
}

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

}  // namespace anno::media::kernels::detail
