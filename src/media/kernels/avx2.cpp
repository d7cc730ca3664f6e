// AVX2 kernel variants -- the fast path on every x86-64 CPU from the last
// decade.  Compiled with -mavx2 (see src/media/CMakeLists.txt);
// kernels.cpp only installs this table after __builtin_cpu_supports
// confirms AVX2 at runtime.
//
// Bit-identical contract: the two floating-point kernels (profileRgb,
// lumaPlane) run four pixels per vector, each lane running the scalar
// double sequence ((cR*r + cG*g) + cB*b) with explicit mul/add intrinsics
// (no FMA contraction possible) and truncating conversions matching the
// scalar casts; everything else (histograms, EMD, the codec kernels) is
// exact integer arithmetic.
// See kernels.h and DESIGN.md sec. 12.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <array>
#include <utility>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

/// Deinterleaves 4 packed RGB pixels (12 bytes of a 16-byte load) into
/// three 4-lane double vectors.
struct Rgb4d {
  __m256d r, g, b;
};

inline Rgb4d loadRgb4(const std::uint8_t* bytes) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes));
  const __m128i rSel = _mm_setr_epi8(0, -1, -1, -1, 3, -1, -1, -1,  //
                                     6, -1, -1, -1, 9, -1, -1, -1);
  const __m128i gSel = _mm_setr_epi8(1, -1, -1, -1, 4, -1, -1, -1,  //
                                     7, -1, -1, -1, 10, -1, -1, -1);
  const __m128i bSel = _mm_setr_epi8(2, -1, -1, -1, 5, -1, -1, -1,  //
                                     8, -1, -1, -1, 11, -1, -1, -1);
  return Rgb4d{
      _mm256_cvtepi32_pd(_mm_shuffle_epi8(v, rSel)),
      _mm256_cvtepi32_pd(_mm_shuffle_epi8(v, gSel)),
      _mm256_cvtepi32_pd(_mm_shuffle_epi8(v, bSel)),
  };
}

/// luma8 of 4 pixels: the scalar op sequence per lane, result as 4 x i32.
inline __m128i luma4(const Rgb4d& p) {
  const __m256d y = _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(p.r, _mm256_set1_pd(kLumaR)),
                    _mm256_mul_pd(p.g, _mm256_set1_pd(kLumaG))),
      _mm256_mul_pd(p.b, _mm256_set1_pd(kLumaB)));
  __m256d t = _mm256_add_pd(y, _mm256_set1_pd(0.5));
  const __m256d lim = _mm256_set1_pd(255.0);
  // luma8 compares (y + 0.5) >= 255 before truncating.
  const __m256d ge = _mm256_cmp_pd(t, lim, _CMP_GE_OQ);
  t = _mm256_blendv_pd(t, lim, ge);
  return _mm256_cvttpd_epi32(t);
}

void profileRgbAvx2(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  std::uint32_t h[4][256] = {};
  __m256i sumV = _mm256_setzero_si256();
  __m256i minB = _mm256_set1_epi8(static_cast<char>(0xFF));
  __m256i maxB = _mm256_setzero_si256();
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m128i pack = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1,  //
                                     -1, -1, -1, -1, -1, -1, -1, -1);
  std::size_t i = 0;
  alignas(32) std::uint8_t tile[32];
  // 32 pixels per tile: the FP lanes pack straight to luma BYTES, so the
  // statistics run on one byte vector (SAD for the sum, min/max_epu8)
  // instead of per-lane extracts -- the same shape as profileGray.  The
  // last quad starts at pixel i+28 and its 16-byte load needs 6 spare
  // pixels (see loadRgb4), hence the i+34 guard.
  for (; i + 34 <= n; i += 32) {
    for (int q = 0; q < 8; ++q) {
      const __m128i yi = luma4(loadRgb4(bytes + 3 * (i + 4 * q)));
      const std::uint32_t packed = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm_shuffle_epi8(yi, pack)));
      __builtin_memcpy(tile + 4 * q, &packed, 4);
    }
    const __m256i v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(tile));
    sumV = _mm256_add_epi64(sumV, _mm256_sad_epu8(v, _mm256_setzero_si256()));
    minB = _mm256_min_epu8(minB, v);
    maxB = _mm256_max_epu8(maxB, v);
    for (int j = 0; j < 32; j += 4) {
      ++h[0][tile[j]];
      ++h[1][tile[j + 1]];
      ++h[2][tile[j + 2]];
      ++h[3][tile[j + 3]];
    }
  }
  if (i != 0) {
    alignas(32) std::uint64_t sums[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sums), sumV);
    out.lumaSum = sums[0] + sums[1] + sums[2] + sums[3];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile), minB);
    for (int j = 0; j < 32; ++j) minAcc = std::min<int>(minAcc, tile[j]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tile), maxB);
    for (int j = 0; j < 32; ++j) maxAcc = std::max<int>(maxAcc, tile[j]);
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                    h[3][v];
    }
  }
  detail::profileRgbRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGrayAvx2(const std::uint8_t* px, std::size_t n,
                     FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  std::uint32_t h[4][256] = {};
  __m256i sumV = _mm256_setzero_si256();
  __m256i minV = _mm256_set1_epi8(static_cast<char>(0xFF));
  __m256i maxV = _mm256_setzero_si256();
  std::size_t i = 0;
  alignas(32) std::uint8_t buf[32];
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px + i));
    sumV = _mm256_add_epi64(sumV, _mm256_sad_epu8(v, _mm256_setzero_si256()));
    minV = _mm256_min_epu8(minV, v);
    maxV = _mm256_max_epu8(maxV, v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), v);
    for (int j = 0; j < 32; ++j) ++h[j & 3][buf[j]];
  }
  if (i != 0) {
    alignas(32) std::uint64_t sums[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(sums), sumV);
    out.lumaSum = sums[0] + sums[1] + sums[2] + sums[3];
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), minV);
    for (int j = 0; j < 32; ++j) minAcc = std::min<int>(minAcc, buf[j]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), maxV);
    for (int j = 0; j < 32; ++j) maxAcc = std::max<int>(maxAcc, buf[j]);
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                    h[3][v];
    }
  }
  detail::profileGrayRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramAvx2(const Rgb8* px, std::size_t n,
                             std::uint64_t* hist) {
  // Two 16-byte loads of 5 packed pixels each per iteration.  Shift-and-max
  // puts max(r,g,b) at bytes 0,3,6,9,12; pshufb compacts those five into
  // the low qword so the banked scatter reads consecutive bytes.  Banks
  // fold by ADDING into the caller's histogram -- the scalar kernel
  // accumulates, so must we.
  std::uint32_t h[4][256] = {};
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m128i pack = _mm_setr_epi8(0, 3, 6, 9, 12, -1, -1, -1,  //
                                     -1, -1, -1, -1, -1, -1, -1, -1);
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  // Second load reads bytes [3(i+5), 3(i+5)+16); in bounds while i+11 <= n.
  for (; i + 11 <= n; i += 10) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 3 * i));
    const __m128i vb = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(bytes + 3 * (i + 5)));
    const __m128i ma = _mm_max_epu8(
        _mm_max_epu8(va, _mm_srli_si128(va, 1)), _mm_srli_si128(va, 2));
    const __m128i mb = _mm_max_epu8(
        _mm_max_epu8(vb, _mm_srli_si128(vb, 1)), _mm_srli_si128(vb, 2));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(buf),
                     _mm_shuffle_epi8(ma, pack));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(buf + 8),
                     _mm_shuffle_epi8(mb, pack));
    ++h[0][buf[0]];
    ++h[1][buf[1]];
    ++h[2][buf[2]];
    ++h[3][buf[3]];
    ++h[0][buf[4]];
    ++h[1][buf[8]];
    ++h[2][buf[9]];
    ++h[3][buf[10]];
    ++h[0][buf[11]];
    ++h[1][buf[12]];
  }
  if (i != 0) {
    for (int v = 0; v < 256; ++v) {
      hist[v] += static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                 h[3][v];
    }
  }
  detail::maxChannelRange(px + i, n - i, hist);
}

void lumaPlaneAvx2(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m128i pack = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1,  //
                                     -1, -1, -1, -1, -1, -1, -1, -1);
  std::size_t i = 0;
  for (; i + 6 <= n; i += 4) {
    const __m128i yi = luma4(loadRgb4(bytes + 3 * i));
    const std::uint32_t packed = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi8(yi, pack)));
    __builtin_memcpy(out + i, &packed, 4);
  }
  detail::lumaPlaneRange(px + i, n - i, out + i);
}

void histAccumulateAvx2(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; v += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + v));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + v),
                        _mm256_add_epi64(d, s));
  }
}

Uint128 emdNumeratorAvx2(const std::uint64_t* a, std::uint64_t totalA,
                         const std::uint64_t* b, std::uint64_t totalB) {
  if (totalA > detail::kEmdFastMaxTotal || totalB > detail::kEmdFastMaxTotal) {
    return detail::emdNumeratorExact(a, totalA, b, totalB);
  }
  if (totalA == totalB) {
    // Equal totals (same-resolution frames -- the scene detector's case):
    // the numerator factors as t * sum_v |cdfA_v - cdfB_v|, and the running
    // cdf difference fits i32 (|diff| <= t <= 2^27), so the prefix sum runs
    // 8 bins wide with the multiply hoisted out of the loop entirely.
    const __m256i zero = _mm256_setzero_si256();
    const __m256i lane7 = _mm256_set1_epi32(7);
    const __m256i order =
        _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);  // undo shuffle_ps halves
    __m256i carry = zero;  // running cdf diff in every lane
    __m256i acc64 = zero;
    for (int v = 0; v < 256; v += 64) {
      __m256i acc32 = zero;  // 8 iterations x 2^27 < 2^31: no overflow
      for (int u = v; u < v + 64; u += 8) {
        const __m256i d0 = _mm256_sub_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + u)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + u)));
        const __m256i d1 = _mm256_sub_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + u + 4)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + u + 4)));
        // Low dwords hold the (two's-complement) per-bin count diffs;
        // compress them into one 8 x i32 vector in bin order.
        __m256i p = _mm256_permutevar8x32_epi32(
            _mm256_castps_si256(_mm256_shuffle_ps(
                _mm256_castsi256_ps(d0), _mm256_castsi256_ps(d1),
                _MM_SHUFFLE(2, 0, 2, 0))),
            order);
        // Inclusive 8-lane prefix sum.
        p = _mm256_add_epi32(p, _mm256_slli_si256(p, 4));
        p = _mm256_add_epi32(p, _mm256_slli_si256(p, 8));
        p = _mm256_add_epi32(
            p, _mm256_shuffle_epi32(_mm256_permute2x128_si256(p, p, 0x08),
                                    0xFF));
        const __m256i cdfDiff = _mm256_add_epi32(p, carry);
        carry =
            _mm256_add_epi32(carry, _mm256_permutevar8x32_epi32(p, lane7));
        acc32 = _mm256_add_epi32(acc32, _mm256_abs_epi32(cdfDiff));
      }
      acc64 = _mm256_add_epi64(acc64, _mm256_unpacklo_epi32(acc32, zero));
      acc64 = _mm256_add_epi64(acc64, _mm256_unpackhi_epi32(acc32, zero));
    }
    alignas(32) std::uint64_t parts[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(parts), acc64);
    // sumAbs <= 256 * 2^27 and t <= 2^27, so the product stays under 2^62.
    return static_cast<Uint128>(
        totalA * (parts[0] + parts[1] + parts[2] + parts[3]));
  }
  // Totals <= 2^27: counts and CDFs fit the low 32 bits of their 64-bit
  // lanes (high halves are zero), so mul_epu32 on the raw count vectors is
  // exact; products stay under 2^54 and the 256-term sum under 2^62.  One
  // fused pass: per-bin diffs e_v = a_v*tB - b_v*tA are prefix-summed
  // in-register (giving d_v = cdfA_v*tB - cdfB_v*tA) and |d_v| accumulated,
  // 8 bins per iteration -- no prefix arrays, and the carry chain is two
  // 64-bit adds per iteration.  Integer throughout, so any evaluation order
  // gives the identical numerator.
  const __m256i tb = _mm256_set1_epi64x(static_cast<long long>(totalB));
  const __m256i ta = _mm256_set1_epi64x(static_cast<long long>(totalA));
  const __m256i zero = _mm256_setzero_si256();
  const auto prefix4 = [zero](__m256i e) {
    // Inclusive prefix sum over the four 64-bit lanes.
    __m256i s = _mm256_blend_epi32(_mm256_permute4x64_epi64(e, 0x90), zero,
                                   0x03);  // [0, e0, e1, e2]
    e = _mm256_add_epi64(e, s);
    s = _mm256_permute2x128_si256(e, e, 0x08);  // [0, 0, p0, p1]
    return _mm256_add_epi64(e, s);
  };
  __m256i carry = zero;  // running d broadcast to every lane
  __m256i acc0 = zero;
  __m256i acc1 = zero;
  for (int v = 0; v < 256; v += 8) {
    const __m256i a0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + v));
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + v));
    const __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + v + 4));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + v + 4));
    const __m256i p0 = prefix4(_mm256_sub_epi64(_mm256_mul_epu32(a0, tb),
                                                _mm256_mul_epu32(b0, ta)));
    const __m256i p1 = prefix4(_mm256_sub_epi64(_mm256_mul_epu32(a1, tb),
                                                _mm256_mul_epu32(b1, ta)));
    const __m256i d0 = _mm256_add_epi64(p0, carry);
    const __m256i carry1 =
        _mm256_add_epi64(carry, _mm256_permute4x64_epi64(p0, 0xFF));
    const __m256i d1 = _mm256_add_epi64(p1, carry1);
    carry = _mm256_add_epi64(carry1, _mm256_permute4x64_epi64(p1, 0xFF));
    const __m256i sign0 = _mm256_cmpgt_epi64(zero, d0);
    const __m256i sign1 = _mm256_cmpgt_epi64(zero, d1);
    acc0 = _mm256_add_epi64(
        acc0, _mm256_sub_epi64(_mm256_xor_si256(d0, sign0), sign0));
    acc1 = _mm256_add_epi64(
        acc1, _mm256_sub_epi64(_mm256_xor_si256(d1, sign1), sign1));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc0, acc1));
  return static_cast<Uint128>(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
}

/// The int16 pair (a, b) as one 32-bit lane, a in the low half.
constexpr std::int32_t int16Pair(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(
      static_cast<std::uint16_t>(a) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(b)) << 16));
}

/// Two int16 weights (a, b) repeated across the lanes, for madd pairs.
inline __m256i weights(std::int32_t a, std::int32_t b) {
  return _mm256_set1_epi32(int16Pair(a, b));
}

/// Lane k of a and of b, both within int16, as the pair (a_k, b_k).
inline __m256i pairs(__m256i a, __m256i b) {
  return _mm256_blend_epi16(a, _mm256_slli_epi32(b, 16), 0xAA);
}

inline __m256i descale(__m256i v, int n) {
  return _mm256_srai_epi32(
      _mm256_add_epi32(v, _mm256_set1_epi32(1 << (n - 1))), n);
}

/// The pair (in[2p], in[2p+1]) of eight int16 inputs, in every lane.
inline __m256i broadcastPair(const std::int16_t* in, int p) {
  std::int32_t pair;
  __builtin_memcpy(&pair, in + 2 * p, sizeof pair);
  return _mm256_set1_epi32(pair);
}

using PassWeights = std::array<std::array<std::int32_t, 8>, 4>;

/// A pass whose lanes are its outputs, over one broadcast input row:
/// lane `out` of table p holds the weights of inputs 2p and 2p + 1.  The
/// forward row pass reads kDct's rows, the inverse row pass its columns.
template <bool kInverse>
constexpr PassWeights laneWeights() {
  PassWeights t{};
  for (int p = 0; p < 4; ++p) {
    for (int out = 0; out < 8; ++out) {
      t[p][out] = kInverse ? int16Pair(detail::kDct[2 * p][out],
                                       detail::kDct[2 * p + 1][out])
                           : int16Pair(detail::kDct[out][2 * p],
                                       detail::kDct[out][2 * p + 1]);
    }
  }
  return t;
}
alignas(32) constexpr PassWeights kFdctRowWeights = laneWeights<false>();
alignas(32) constexpr PassWeights kIdctRowWeights = laneWeights<true>();

/// sum_p madd(pair p of `in`, table p): all eight outputs of one row.
inline __m256i rowSums(const std::int16_t* in, const PassWeights& w) {
  __m256i sum = _mm256_setzero_si256();
  #pragma GCC unroll 8
  for (int p = 0; p < 4; ++p) {
    sum = _mm256_add_epi32(
        sum, _mm256_madd_epi16(broadcastPair(in, p),
                               _mm256_load_si256(
                                   reinterpret_cast<const __m256i*>(
                                       w[p].data()))));
  }
  return sum;
}

// Both transforms multiply-add int16 pairs in kDct's direct form, which
// reproduces the reference's integers; detail:: proves every input fits
// int16 and every sum int32.  A row pass takes its input pairs by
// broadcast and produces a row's eight outputs in the lanes; a column pass
// keeps lanes = columns, so neither needs a transpose.
void fdct8x8Avx2(const std::int16_t* spatial, std::int32_t* freq) {
  __m256i r[8];
  #pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) {
    r[y] = descale(rowSums(spatial + 8 * y, kFdctRowWeights),
                   detail::kFdctRowAc);
  }
  // Row k is even or odd about 3.5, so rows y and 7 - y pair up.
  __m256i p[4];
  #pragma GCC unroll 8
  for (int y = 0; y < 4; ++y) p[y] = pairs(r[y], r[7 - y]);
  #pragma GCC unroll 8
  for (int j = 0; j < 8; ++j) {
    __m256i sum = _mm256_setzero_si256();
    #pragma GCC unroll 8
    for (int y = 0; y < 4; ++y) {
      sum = _mm256_add_epi32(
          sum, _mm256_madd_epi16(p[y], weights(detail::kDct[j][y],
                                               detail::kDct[j][7 - y])));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(freq + 8 * j),
                        descale(sum, detail::kFdctColAc));
  }
}

void idct8x8Avx2(const std::int32_t* freq, std::int16_t* spatial) {
  const auto row = [freq](int j) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(freq + 8 * j));
  };
  const __m256i even0 = pairs(row(0), row(2));
  const __m256i even1 = pairs(row(4), row(6));
  const __m256i odd0 = pairs(row(1), row(3));
  const __m256i odd1 = pairs(row(5), row(7));
  // Column pass: outputs y and 7 - y are e + o and e - o.  The row pass
  // takes the split v = 8h + l of its input (detail::idctRowPass) as two
  // int16 rows each.
  constexpr int b = detail::kIdctPass1Bits;
  const __m256i lowMask = _mm256_set1_epi32((1 << b) - 1);
  __m256i v[8];
  #pragma GCC unroll 8
  for (int y = 0; y < 4; ++y) {
    const auto& k = detail::kDct;
    const __m256i e = _mm256_add_epi32(
        _mm256_madd_epi16(even0, weights(k[0][y], k[2][y])),
        _mm256_madd_epi16(even1, weights(k[4][y], k[6][y])));
    const __m256i o = _mm256_add_epi32(
        _mm256_madd_epi16(odd0, weights(k[1][y], k[3][y])),
        _mm256_madd_epi16(odd1, weights(k[5][y], k[7][y])));
    v[y] = descale(_mm256_add_epi32(e, o), detail::kIdctColShift);
    v[7 - y] = descale(_mm256_sub_epi32(e, o), detail::kIdctColShift);
  }
  alignas(32) std::int16_t hi[64];
  alignas(32) std::int16_t lo[64];
  #pragma GCC unroll 8
  for (int y = 0; y < 8; y += 2) {
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(hi + 8 * y),
        _mm256_permute4x64_epi64(
            _mm256_packs_epi32(_mm256_srai_epi32(v[y], b),
                               _mm256_srai_epi32(v[y + 1], b)),
            0xD8));
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(lo + 8 * y),
        _mm256_permute4x64_epi64(
            _mm256_packs_epi32(_mm256_and_si256(v[y], lowMask),
                               _mm256_and_si256(v[y + 1], lowMask)),
            0xD8));
  }
  // The row pass broadcasts its pairs from hi and lo.  Without this
  // barrier the compiler forwards the stores through register shuffles,
  // which contend for one port; broadcasts from memory use the load ports
  // (bench_simd_kernels: 34 ns against 51 per block).
  asm volatile("" ::: "memory");
  const __m256i round =
      _mm256_set1_epi32(1 << (detail::kIdctRowShift - 1));
  __m256i out[8];
  #pragma GCC unroll 8
  for (int y = 0; y < 8; ++y) {
    const __m256i a = rowSums(hi + 8 * y, kIdctRowWeights);
    const __m256i c = rowSums(lo + 8 * y, kIdctRowWeights);
    out[y] = _mm256_srai_epi32(
        _mm256_add_epi32(a, _mm256_srai_epi32(_mm256_add_epi32(c, round), b)),
        detail::kIdctRowShift - b);
  }
  #pragma GCC unroll 8
  for (int y = 0; y < 8; y += 2) {
    // packs saturates to int16 exactly like the reference's clamp.
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(spatial + 8 * y),
        _mm256_permute4x64_epi64(_mm256_packs_epi32(out[y], out[y + 1]),
                                 0xD8));
  }
}

std::uint64_t quantizeBlockAvx2(const std::int32_t* freq,
                                const QuantTable& table,
                                std::int32_t* zigzagOut) {
  std::uint64_t zeros = 0;
  for (int i = 0; i < 64; i += 8) {
    // Gather the coefficients in zigzag order; the table already is.
    const __m256i c = _mm256_i32gather_epi32(
        freq,
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(detail::kZigzag.data() + i)),
        4);
    const __m256i n = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_abs_epi32(c),
                         _mm256_load_si256(reinterpret_cast<const __m256i*>(
                             table.half + i))),
        kCoefFracBits);
    // n < 2^12 and recip <= 2^20: the unsigned product fits 32 bits.
    const __m256i level = _mm256_sign_epi32(
        _mm256_srli_epi32(
            _mm256_mullo_epi32(n, _mm256_load_si256(
                                      reinterpret_cast<const __m256i*>(
                                          table.recip + i))),
            QuantTable::kQuantShift),
        c);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(zigzagOut + i), level);
    zeros |= static_cast<std::uint64_t>(_mm256_movemask_ps(_mm256_castsi256_ps(
                 _mm256_cmpeq_epi32(level, _mm256_setzero_si256()))))
             << i;
  }
  return ~zeros;
}

/// A shuffle control repeated in both 128-bit lanes.
inline __m256i laneShuffle(const std::array<std::int8_t, 16>& c) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.data())));
}

void rgbToYcbcrPlanesAvx2(const Rgb8* px, std::size_t n,
                          const std::uint8_t* table, std::int16_t* y,
                          std::int16_t* cb, std::int16_t* cr) {
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m256i yRG = weights(detail::kYR, detail::kYG);
  const __m256i yB = weights(detail::kYB, 0);
  const __m256i cbRG = weights(detail::kCbR, detail::kCbG);
  const __m256i cbB = weights(detail::kCbB, 0);
  const __m256i crRG = weights(detail::kCrR, detail::kCrG);
  const __m256i crB = weights(detail::kCrB, 0);
  const __m256i lumaRound = _mm256_set1_epi32(detail::kToPlaneRound);
  const __m256i chromaRound = _mm256_set1_epi32(detail::kToChromaRound);
  const auto plane = [](__m256i rg, __m256i b, __m256i wRG, __m256i wB,
                        __m256i round) {
    return _mm256_srai_epi32(
        _mm256_add_epi32(_mm256_add_epi32(_mm256_madd_epi16(rg, wRG),
                                          _mm256_madd_epi16(b, wB)),
                         round),
        detail::kToPlaneShift);
  };
  // Pack two 8 x i32 halves (pixels 0-7, 8-15) into 16 x i16 in order.
  const auto pack = [](__m256i a, __m256i b) {
    return _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0xD8);
  };
  // Converts pixels i..i+15 as four 16-byte loads of 4 pixels each; the
  // last load reads 4 bytes past pixel i+15, hence the i+18 guards below.
  // pairs(v) turns four packed pixels per 128-bit lane of v into their
  // (R, G) and (B, 0) int16 pairs.
  const auto convert = [&](std::size_t i, const auto& pairs) {
    __m256i yv[2];
    __m256i cbv[2];
    __m256i crv[2];
    for (int h = 0; h < 2; ++h) {
      const std::uint8_t* p = bytes + 3 * (i + 8 * h);
      const auto [rg, b] = pairs(_mm256_inserti128_si256(
          _mm256_castsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 12)), 1));
      yv[h] = plane(rg, b, yRG, yB, lumaRound);
      cbv[h] = plane(rg, b, cbRG, cbB, chromaRound);
      crv[h] = plane(rg, b, crRG, crB, chromaRound);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i), pack(yv[0], yv[1]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cb + i),
                        pack(cbv[0], cbv[1]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cr + i),
                        pack(crv[0], crv[1]));
  };
  std::size_t i = 0;
  if (table == nullptr) {
    const __m256i rgSel = laneShuffle(
        {0, -1, 1, -1, 3, -1, 4, -1, 6, -1, 7, -1, 9, -1, 10, -1});
    const __m256i bSel = laneShuffle(
        {2, -1, -1, -1, 5, -1, -1, -1, 8, -1, -1, -1, 11, -1, -1, -1});
    const auto pairs = [&](__m256i v) {
      return std::pair{_mm256_shuffle_epi8(v, rgSel),
                       _mm256_shuffle_epi8(v, bSel)};
    };
    for (; i + 18 <= n; i += 16) convert(i, pairs);
  } else {
    // Each channel byte, zero-extended to an int32 lane, indexes a gather
    // from the table widened to int32 (a byte gather would read past the
    // table's end).  On the host measured, gathering beat looking each
    // block of pixels up into a buffer first (DESIGN.md sec. 12).
    alignas(32) std::int32_t wide[256];
    for (int v = 0; v < 256; ++v) wide[v] = table[v];
    const __m256i rSel = laneShuffle(
        {0, -1, -1, -1, 3, -1, -1, -1, 6, -1, -1, -1, 9, -1, -1, -1});
    const __m256i gSel = laneShuffle(
        {1, -1, -1, -1, 4, -1, -1, -1, 7, -1, -1, -1, 10, -1, -1, -1});
    const __m256i bSel = laneShuffle(
        {2, -1, -1, -1, 5, -1, -1, -1, 8, -1, -1, -1, 11, -1, -1, -1});
    const auto lookup = [&wide](__m256i v, __m256i sel) {
      return _mm256_i32gather_epi32(wide, _mm256_shuffle_epi8(v, sel), 4);
    };
    const auto pairs = [&](__m256i v) {
      return std::pair{
          _mm256_or_si256(lookup(v, rSel),
                          _mm256_slli_epi32(lookup(v, gSel), 16)),
          lookup(v, bSel)};
    };
    for (; i + 18 <= n; i += 16) convert(i, pairs);
  }
  detail::rgbToYcbcrPlanesScalar(px + i, n - i, table, y + i, cb + i,
                                 cr + i);
}

void ycbcrPlanesToRgbAvx2(const std::int16_t* y, const std::int16_t* cb,
                          const std::int16_t* cr, std::size_t n, Rgb8* out) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i rW = weights(detail::kRgbY, detail::kRCr);
  const __m256i gW = weights(detail::kRgbY, detail::kGCb);
  const __m256i gCrW = weights(detail::kGCr, 0);
  const __m256i bW = weights(detail::kRgbY, detail::kBCb);
  const __m256i rBias = _mm256_set1_epi32(detail::kRBias);
  const __m256i gBias = _mm256_set1_epi32(detail::kGBias);
  const __m256i bBias = _mm256_set1_epi32(detail::kBBias);
  // Per 128-bit lane, from [R0..R7 G0..G7] and [B0..B7 ...]: RGB bytes
  // 0-15 of the lane's eight pixels, then bytes 16-23.
  const __m256i rgA = _mm256_setr_epi8(
      0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11, -1, 4, 12, -1, 5,  //
      0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11, -1, 4, 12, -1, 5);
  const __m256i bA = _mm256_setr_epi8(
      -1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1,  //
      -1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1, 3, -1, -1, 4, -1);
  const __m256i rgB = _mm256_setr_epi8(
      13, -1, 6, 14, -1, 7, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      13, -1, 6, 14, -1, 7, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i bB = _mm256_setr_epi8(
      -1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1, -1, -1, -1, -1, -1,  //
      -1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1, -1, -1, -1, -1, -1);
  const auto channel = [](__m256i sum) {
    return _mm256_srai_epi32(sum, detail::kToRgbShift);
  };
  std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(out);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i yv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i cbv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cb + i));
    const __m256i crv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cr + i));
    // unpacklo/hi and packs are both per 128-bit lane, so packing the
    // (lo, hi) results restores pixel order.
    __m256i r[2];
    __m256i g[2];
    __m256i b[2];
    for (int h = 0; h < 2; ++h) {
      const __m256i ycr = h == 0 ? _mm256_unpacklo_epi16(yv, crv)
                                 : _mm256_unpackhi_epi16(yv, crv);
      const __m256i ycb = h == 0 ? _mm256_unpacklo_epi16(yv, cbv)
                                 : _mm256_unpackhi_epi16(yv, cbv);
      const __m256i cr0 = h == 0 ? _mm256_unpacklo_epi16(crv, zero)
                                 : _mm256_unpackhi_epi16(crv, zero);
      r[h] = channel(_mm256_add_epi32(_mm256_madd_epi16(ycr, rW), rBias));
      g[h] = channel(_mm256_add_epi32(
          _mm256_add_epi32(_mm256_madd_epi16(ycb, gW),
                           _mm256_madd_epi16(cr0, gCrW)),
          gBias));
      b[h] = channel(_mm256_add_epi32(_mm256_madd_epi16(ycb, bW), bBias));
    }
    // packus clamps to 0..255 exactly like the reference.
    const __m256i rg = _mm256_packus_epi16(_mm256_packs_epi32(r[0], r[1]),
                                           _mm256_packs_epi32(g[0], g[1]));
    const __m256i bb = _mm256_packus_epi16(_mm256_packs_epi32(b[0], b[1]),
                                           zero);
    const __m256i a = _mm256_or_si256(_mm256_shuffle_epi8(rg, rgA),
                                      _mm256_shuffle_epi8(bb, bA));
    const __m256i t = _mm256_or_si256(_mm256_shuffle_epi8(rg, rgB),
                                      _mm256_shuffle_epi8(bb, bB));
    std::uint8_t* d = dst + 3 * i;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d),
                     _mm256_castsi256_si128(a));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(d + 16),
                     _mm256_castsi256_si128(t));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + 24),
                     _mm256_extracti128_si256(a, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(d + 40),
                     _mm256_extracti128_si256(t, 1));
  }
  detail::ycbcrPlanesToRgbScalar(y + i, cb + i, cr + i, n - i, out + i);
}

}  // namespace

const KernelTable& avx2Table() noexcept {
  static constexpr KernelTable kTable{
      Level::kAvx2,        profileRgbAvx2,    profileGrayAvx2,
      maxChannelHistogramAvx2, lumaPlaneAvx2, histAccumulateAvx2,
      emdNumeratorAvx2,    fdct8x8Avx2,       idct8x8Avx2,
      quantizeBlockAvx2,
      rgbToYcbcrPlanesAvx2, ycbcrPlanesToRgbAvx2,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // x86-64
