// AVX2 kernel variants -- the fast path on every x86-64 CPU from the last
// decade.  Compiled with -mavx2 -mpopcnt (see src/media/CMakeLists.txt);
// kernels.cpp only installs this table after __builtin_cpu_supports
// confirms both features at runtime.
//
// Bit-identical contract: four pixels per vector, each lane running the
// scalar double sequence ((cR*r + cG*g) + cB*b) with explicit mul/add
// intrinsics (no FMA contraction possible), truncating conversions
// matching the scalar casts, and exact integer reductions everywhere else.
// See kernels.h and DESIGN.md sec. 12.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

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

void scalePixelsAvx2(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  if (k < 0.0) {
    detail::scaleRange(src, n, k, dst);
    return;
  }
  const __m256d kv = _mm256_set1_pd(k);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lim = _mm256_set1_pd(255.0);
  const __m128i pack = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1,  //
                                     -1, -1, -1, -1, -1, -1, -1, -1);
  const std::uint8_t* in = reinterpret_cast<const std::uint8_t*>(src);
  std::uint8_t* outp = reinterpret_cast<std::uint8_t*>(dst);
  const std::size_t channels = n * 3;
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    std::uint32_t quad;
    __builtin_memcpy(&quad, in + c, 4);
    const __m256d v = _mm256_cvtepi32_pd(
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(quad))));
    // clamp8(v*k): compare the PRODUCT against 255 (clamp8's order), then
    // truncate product + 0.5; v*k >= 0 so the low clamp cannot fire.
    const __m256d y = _mm256_mul_pd(v, kv);
    __m256d t = _mm256_add_pd(y, half);
    const __m256d ge = _mm256_cmp_pd(y, lim, _CMP_GE_OQ);
    t = _mm256_blendv_pd(t, lim, ge);
    const __m128i yi = _mm256_cvttpd_epi32(t);
    const std::uint32_t packed = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi8(yi, pack)));
    __builtin_memcpy(outp + c, &packed, 4);
  }
  for (; c < channels; ++c) {
    outp[c] = clamp8(static_cast<double>(in[c]) * k);
  }
}

std::size_t countClippedAvx2(const Rgb8* px, std::size_t n, double k) {
  if (k < 0.0) return detail::countClippedRange(px, n, k);
  const int threshold = detail::clipThreshold(k);
  if (threshold > 255) return 0;
  const __m256i tv = _mm256_set1_epi8(static_cast<char>(threshold));
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t clipped = 0;
  std::size_t i = 0;
  // 32 pixels = 96 bytes per iteration; movemask bit j maps to byte j of
  // the load, i.e. pixel j/3 channel j%3.
  for (; i + 32 <= n; i += 32) {
    const std::uint8_t* blk = bytes + 3 * i;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (int part = 0; part < 3; ++part) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(blk + 32 * part));
      const __m256i ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, tv), v);
      const std::uint64_t m = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(ge));
      if (part == 0) {
        lo |= m;
      } else if (part == 1) {
        lo |= m << 32;
      } else {
        hi |= m;
      }
    }
    // Fold the 96 channel bits into one bit per pixel (bit 3p of lo/hi
    // after OR-ing each group of three).
    const std::uint64_t loBits = lo | (lo >> 1) | (lo >> 2);
    const std::uint64_t hiBits = hi | (hi >> 1) | (hi >> 2);
    // Channel bit 64 = pixel 21 channel 1 etc.: handle the seam exactly by
    // recombining the straddled pixel (pixel 21 spans bits 63..64).
    // Simpler: pixels 0..20 live entirely in lo (bits 0..62), pixels
    // 22..31 entirely in hi (bits 2..31 of hi<<?), pixel 21 spans.
    clipped += static_cast<std::size_t>(
        __builtin_popcountll(loBits & 0x1249249249249249ull));  // pixels 0..20
    const bool seam = ((lo >> 63) | hi | (hi >> 1)) & 1ull;     // pixel 21
    clipped += static_cast<std::size_t>(seam);
    clipped += static_cast<std::size_t>(
        __builtin_popcountll(hiBits & (0x249249249249ull << 2)));  // 22..31
  }
  return clipped + detail::countClippedRange(px + i, n - i, k);
}

int tailBudgetLevelAvx2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointAvx2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointAvx2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

/// out = a * b for row-major 8x8 doubles.  Each output is the scalar chain
/// acc = 0.0; acc += a[r][i] * b[i][c] for i = 0..7; the eight outputs of a
/// row sit in two vectors, four rows at a time for independent chains.
/// Named accumulators (not an array) keep them in registers at -O2.
inline void matmul8Avx2(const double* a, const double* b, double* out) {
  for (int r = 0; r < 8; r += 4) {
    const double* ar = a + r * 8;
    __m256d c00 = _mm256_setzero_pd(), c01 = c00, c10 = c00, c11 = c00;
    __m256d c20 = c00, c21 = c00, c30 = c00, c31 = c00;
    for (int i = 0; i < 8; ++i) {
      const __m256d b0 = _mm256_loadu_pd(b + 8 * i);
      const __m256d b1 = _mm256_loadu_pd(b + 8 * i + 4);
      __m256d ai = _mm256_broadcast_sd(ar + i);
      c00 = _mm256_add_pd(c00, _mm256_mul_pd(ai, b0));
      c01 = _mm256_add_pd(c01, _mm256_mul_pd(ai, b1));
      ai = _mm256_broadcast_sd(ar + 8 + i);
      c10 = _mm256_add_pd(c10, _mm256_mul_pd(ai, b0));
      c11 = _mm256_add_pd(c11, _mm256_mul_pd(ai, b1));
      ai = _mm256_broadcast_sd(ar + 16 + i);
      c20 = _mm256_add_pd(c20, _mm256_mul_pd(ai, b0));
      c21 = _mm256_add_pd(c21, _mm256_mul_pd(ai, b1));
      ai = _mm256_broadcast_sd(ar + 24 + i);
      c30 = _mm256_add_pd(c30, _mm256_mul_pd(ai, b0));
      c31 = _mm256_add_pd(c31, _mm256_mul_pd(ai, b1));
    }
    double* o = out + r * 8;
    _mm256_storeu_pd(o, c00);
    _mm256_storeu_pd(o + 4, c01);
    _mm256_storeu_pd(o + 8, c10);
    _mm256_storeu_pd(o + 12, c11);
    _mm256_storeu_pd(o + 16, c20);
    _mm256_storeu_pd(o + 20, c21);
    _mm256_storeu_pd(o + 24, c30);
    _mm256_storeu_pd(o + 28, c31);
  }
}

// The scalar DCT's row pass is tmp = in * C^T and its column pass
// out = C * tmp, both summing over the inner index in ascending order; the
// inverse is tmp = in * C, out = C^T * tmp.  matmul8 keeps those orders.
void fdct8x8Avx2(const double* spatial, double* freq) {
  const detail::DctBasis& basis = detail::dctBasis();
  alignas(32) double tmp[64];
  matmul8Avx2(spatial, &basis.ct[0][0], tmp);
  matmul8Avx2(&basis.c[0][0], tmp, freq);
}

void idct8x8Avx2(const double* freq, double* spatial) {
  const detail::DctBasis& basis = detail::dctBasis();
  alignas(32) double tmp[64];
  matmul8Avx2(freq, &basis.c[0][0], tmp);
  matmul8Avx2(&basis.ct[0][0], tmp, spatial);
}

void quantizeBlockAvx2(const double* freq, const int* quant,
                       int* zigzagOut) {
  // lround(q) exactly: t = trunc(q) and r = q - t are exact, and
  // round-half-away steps t by one toward q's sign when |r| >= 0.5.
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d minusHalf = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  alignas(16) int q[64];
  for (int j = 0; j < 64; j += 4) {
    const __m256d x = _mm256_div_pd(
        _mm256_loadu_pd(freq + j),
        _mm256_cvtepi32_pd(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(quant + j))));
    const __m256d t =
        _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256d r = _mm256_sub_pd(x, t);
    const __m256d step = _mm256_sub_pd(
        _mm256_and_pd(_mm256_cmp_pd(r, half, _CMP_GE_OQ), one),
        _mm256_and_pd(_mm256_cmp_pd(r, minusHalf, _CMP_LE_OQ), one));
    _mm_store_si128(reinterpret_cast<__m128i*>(q + j),
                    _mm256_cvttpd_epi32(_mm256_add_pd(t, step)));
  }
  for (int i = 0; i < 64; ++i) zigzagOut[i] = q[detail::kZigzag[i]];
}

void rgbToYcbcrPlanesAvx2(const Rgb8* px, std::size_t n, double* y,
                          double* cb, double* cr) {
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m256d c128 = _mm256_set1_pd(128.0);
  std::size_t i = 0;
  // Same 6-pixel overread guard as lumaPlaneAvx2.
  for (; i + 6 <= n; i += 4) {
    const Rgb4d p = loadRgb4(bytes + 3 * i);
    _mm256_storeu_pd(
        y + i,
        _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kLumaR), p.r),
                          _mm256_mul_pd(_mm256_set1_pd(kLumaG), p.g)),
            _mm256_mul_pd(_mm256_set1_pd(kLumaB), p.b)));
    _mm256_storeu_pd(
        cb + i,
        _mm256_add_pd(
            c128,
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(-0.168736), p.r),
                              _mm256_mul_pd(_mm256_set1_pd(0.331264), p.g)),
                _mm256_mul_pd(_mm256_set1_pd(0.5), p.b))));
    _mm256_storeu_pd(
        cr + i,
        _mm256_add_pd(
            c128,
            _mm256_sub_pd(
                _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), p.r),
                              _mm256_mul_pd(_mm256_set1_pd(0.418688), p.g)),
                _mm256_mul_pd(_mm256_set1_pd(0.081312), p.b))));
  }
  detail::rgbToYcbcrPlanesScalar(px + i, n - i, y + i, cb + i, cr + i);
}

/// clamp8 of 4 doubles as 4 x i32: 0 if v <= 0, 255 if v >= 255, else
/// trunc(v + 0.5).
inline __m128i clamp8x4(__m256d v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d lim = _mm256_set1_pd(255.0);
  __m256d t = _mm256_add_pd(v, _mm256_set1_pd(0.5));
  t = _mm256_blendv_pd(t, lim, _mm256_cmp_pd(v, lim, _CMP_GE_OQ));
  t = _mm256_blendv_pd(t, zero, _mm256_cmp_pd(v, zero, _CMP_LE_OQ));
  return _mm256_cvttpd_epi32(t);
}

void ycbcrPlanesToRgbAvx2(const double* y, const double* cb,
                          const double* cr, std::size_t n, Rgb8* out) {
  const __m256d c128 = _mm256_set1_pd(128.0);
  // Packs lanes of r | g << 8 | b << 16 into 12 consecutive RGB bytes.
  const __m128i pack = _mm_setr_epi8(0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13,
                                     14, -1, -1, -1, -1);
  std::uint8_t* bytes = reinterpret_cast<std::uint8_t*>(out);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yv = _mm256_loadu_pd(y + i);
    const __m256d cbm = _mm256_sub_pd(_mm256_loadu_pd(cb + i), c128);
    const __m256d crm = _mm256_sub_pd(_mm256_loadu_pd(cr + i), c128);
    const __m128i r = clamp8x4(
        _mm256_add_pd(yv, _mm256_mul_pd(_mm256_set1_pd(1.402), crm)));
    const __m128i g = clamp8x4(_mm256_sub_pd(
        _mm256_sub_pd(yv, _mm256_mul_pd(_mm256_set1_pd(0.344136), cbm)),
        _mm256_mul_pd(_mm256_set1_pd(0.714136), crm)));
    const __m128i b = clamp8x4(
        _mm256_add_pd(yv, _mm256_mul_pd(_mm256_set1_pd(1.772), cbm)));
    const __m128i rgb = _mm_shuffle_epi8(
        _mm_or_si128(r, _mm_or_si128(_mm_slli_epi32(g, 8),
                                     _mm_slli_epi32(b, 16))),
        pack);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(bytes + 3 * i), rgb);
    const std::uint32_t tail =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(rgb, 8)));
    __builtin_memcpy(bytes + 3 * i + 8, &tail, 4);
  }
  detail::ycbcrPlanesToRgbScalar(y + i, cb + i, cr + i, n - i, out + i);
}

}  // namespace

const KernelTable& avx2Table() noexcept {
  static constexpr KernelTable kTable{
      Level::kAvx2,        profileRgbAvx2,    profileGrayAvx2,
      maxChannelHistogramAvx2, lumaPlaneAvx2, histAccumulateAvx2,
      emdNumeratorAvx2,    scalePixelsAvx2,   countClippedAvx2,
      tailBudgetLevelAvx2, lowPointAvx2,      highPointAvx2,
      fdct8x8Avx2,         idct8x8Avx2,       quantizeBlockAvx2,
      rgbToYcbcrPlanesAvx2, ycbcrPlanesToRgbAvx2,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // x86-64
