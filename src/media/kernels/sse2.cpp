// SSE2 kernel variants -- the x86-64 baseline level (every x86-64 CPU has
// SSE2, so this is the floor the dispatcher can always select on x86).
//
// Bit-identical contract: the double-precision kernels run each pixel
// through the exact scalar operation sequence, two pixels per vector; the
// integer kernels are exact.  Clipped counting compares bytes against a
// threshold derived from the scalar predicate (detail::clipThreshold), so
// it reproduces the per-pixel double comparison on every input.
//
// This TU is compiled WITHOUT extra ISA flags: SSE2 is part of the x86-64
// ABI, so the intrinsics below are always available here.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

// Baseline SSE2 has no byte shuffle (SSSE3) or widening loads (SSE4.1), so
// the RGB deinterleave costs more scalar construction than the two-wide
// double math saves: the measured 2-lane variants ran ~0.85x of scalar.
// The profile and plane kernels therefore use the scalar reference here;
// SSE2 still wins on the byte-oriented kernels below.
void profileRgbSse2(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileRgbRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGraySse2(const std::uint8_t* px, std::size_t n,
                     FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  std::uint32_t h[4][256] = {};
  __m128i sumAcc = _mm_setzero_si128();
  __m128i minAccV = _mm_set1_epi8(static_cast<char>(0xFF));
  __m128i maxAccV = _mm_setzero_si128();
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(px + i));
    sumAcc = _mm_add_epi64(sumAcc, _mm_sad_epu8(v, _mm_setzero_si128()));
    minAccV = _mm_min_epu8(minAccV, v);
    maxAccV = _mm_max_epu8(maxAccV, v);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), v);
    for (int j = 0; j < 16; ++j) ++h[j & 3][buf[j]];
  }
  if (i != 0) {
    out.lumaSum = static_cast<std::uint64_t>(_mm_cvtsi128_si64(sumAcc)) +
                  static_cast<std::uint64_t>(
                      _mm_cvtsi128_si64(_mm_unpackhi_epi64(sumAcc, sumAcc)));
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), minAccV);
    for (int j = 0; j < 16; ++j) minAcc = std::min<int>(minAcc, buf[j]);
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), maxAccV);
    for (int j = 0; j < 16; ++j) maxAcc = std::max<int>(maxAcc, buf[j]);
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                    h[3][v];
    }
  }
  detail::profileGrayRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramSse2(const Rgb8* px, std::size_t n,
                             std::uint64_t* hist) {
  // One 16-byte load covers 5 packed RGB pixels (15 bytes).  Byte-shifting
  // the vector right by 1 and 2 and taking the unsigned max makes byte j
  // hold max(bytes j, j+1, j+2) -- at j = 0,3,6,9,12 exactly max(r,g,b) of
  // a pixel.  The scatter runs on four banked uint32 histograms (the same
  // dependency-breaking shape as profileGray) and ADDS into the caller's
  // histogram at the end: the scalar kernel accumulates, so must we.
  std::uint32_t h[4][256] = {};
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  // The load reads bytes [3i, 3i+16); 3i+16 <= 3(i+6) keeps it in bounds.
  for (; i + 6 <= n; i += 5) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + 3 * i));
    const __m128i m = _mm_max_epu8(
        _mm_max_epu8(v, _mm_srli_si128(v, 1)), _mm_srli_si128(v, 2));
    _mm_store_si128(reinterpret_cast<__m128i*>(buf), m);
    ++h[0][buf[0]];
    ++h[1][buf[3]];
    ++h[2][buf[6]];
    ++h[3][buf[9]];
    ++h[0][buf[12]];
  }
  if (i != 0) {
    for (int v = 0; v < 256; ++v) {
      hist[v] += static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                 h[3][v];
    }
  }
  detail::maxChannelRange(px + i, n - i, hist);
}

void lumaPlaneSse2(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  detail::lumaPlaneRange(px, n, out);  // see the profileRgbSse2 note
}

void histAccumulateSse2(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; v += 2) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + v));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + v));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + v),
                     _mm_add_epi64(d, s));
  }
}

Uint128 emdNumeratorSse2(const std::uint64_t* a, std::uint64_t totalA,
                         const std::uint64_t* b, std::uint64_t totalB) {
  if (totalA > detail::kEmdFastMaxTotal || totalB > detail::kEmdFastMaxTotal) {
    return detail::emdNumeratorExact(a, totalA, b, totalB);
  }
  if (totalA == totalB) {
    // Equal totals factor the numerator as t * sum|cdfA - cdfB| -- one
    // multiply total instead of two per bin (still exact integers).
    std::int64_t cdfDiff = 0;
    std::uint64_t sumAbs = 0;
    for (int v = 0; v < 256; ++v) {
      cdfDiff += static_cast<std::int64_t>(a[v]) -
                 static_cast<std::int64_t>(b[v]);
      sumAbs += static_cast<std::uint64_t>(cdfDiff < 0 ? -cdfDiff : cdfDiff);
    }
    return static_cast<Uint128>(totalA * sumAbs);
  }
  // 64-bit fast path: with totals <= 2^27 every product fits well inside
  // a signed 64-bit value (exact, so identical to the 128-bit reference).
  std::uint64_t cdfA = 0;
  std::uint64_t cdfB = 0;
  std::uint64_t acc = 0;
  for (int v = 0; v < 256; ++v) {
    cdfA += a[v];
    cdfB += b[v];
    const std::int64_t d = static_cast<std::int64_t>(cdfA * totalB) -
                           static_cast<std::int64_t>(cdfB * totalA);
    acc += static_cast<std::uint64_t>(d < 0 ? -d : d);
  }
  return acc;
}

void scalePixelsSse2(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  if (k < 0.0) {
    detail::scaleRange(src, n, k, dst);
    return;
  }
  const __m128d kv = _mm_set1_pd(k);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d lim = _mm_set1_pd(255.0);
  const std::uint8_t* in = reinterpret_cast<const std::uint8_t*>(src);
  std::uint8_t* outp = reinterpret_cast<std::uint8_t*>(dst);
  const std::size_t channels = n * 3;
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    // clamp8(v*k): v*k >= 0 here, so only the >= 255 clamp can fire and
    // truncating v*k + 0.5 reproduces the scalar rounding exactly.
    const __m128d y = _mm_mul_pd(_mm_set_pd(in[c + 1], in[c]), kv);
    __m128d t = _mm_add_pd(y, half);
    const __m128d ge = _mm_cmpge_pd(y, lim);
    t = _mm_or_pd(_mm_and_pd(ge, lim), _mm_andnot_pd(ge, t));
    const __m128i yi = _mm_cvttpd_epi32(t);
    outp[c] = static_cast<std::uint8_t>(_mm_cvtsi128_si32(yi));
    outp[c + 1] = static_cast<std::uint8_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi32(yi, 1)));
  }
  if (c < channels) {
    // Odd channel count only when n is odd; finish the final pixel.
    dst[n - 1] = scale(src[n - 1], k);
  }
}

std::size_t countClippedSse2(const Rgb8* px, std::size_t n, double k) {
  if (k < 0.0) return detail::countClippedRange(px, n, k);
  const int threshold = detail::clipThreshold(k);
  if (threshold > 255) return 0;  // not even code 255 clips
  // A pixel clips iff max(r,g,b) >= threshold; byte-compare all three
  // channel bytes and OR the three per-pixel bits of the movemask.
  const __m128i tv = _mm_set1_epi8(static_cast<char>(threshold));
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t clipped = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint8_t* blk = bytes + 3 * i;
    std::uint64_t mask = 0;
    for (int part = 0; part < 3; ++part) {
      const __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(blk + 16 * part));
      // Unsigned v >= threshold  <=>  max(v, threshold) == v.
      const __m128i ge = _mm_cmpeq_epi8(_mm_max_epu8(v, tv), v);
      mask |= static_cast<std::uint64_t>(
                  static_cast<std::uint32_t>(_mm_movemask_epi8(ge)))
              << (16 * part);
    }
    const std::uint64_t pixelBits =
        (mask | (mask >> 1) | (mask >> 2)) & 0x249249249249ull;
    clipped += static_cast<std::size_t>(__builtin_popcountll(pixelBits));
  }
  return clipped + detail::countClippedRange(px + i, n - i, k);
}

int tailBudgetLevelSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointSse2(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

/// out = a * b for row-major 8x8 doubles; each output keeps the scalar
/// chain acc = 0.0; acc += a[r][i] * b[i][c] (see the AVX2 variant), two
/// rows of four vectors at a time in named (register) accumulators.
inline void matmul8Sse2(const double* a, const double* b, double* out) {
  for (int r = 0; r < 8; r += 2) {
    const double* ar = a + r * 8;
    __m128d c00 = _mm_setzero_pd(), c01 = c00, c02 = c00, c03 = c00;
    __m128d c10 = c00, c11 = c00, c12 = c00, c13 = c00;
    for (int i = 0; i < 8; ++i) {
      const double* bi = b + 8 * i;
      const __m128d b0 = _mm_loadu_pd(bi);
      const __m128d b1 = _mm_loadu_pd(bi + 2);
      const __m128d b2 = _mm_loadu_pd(bi + 4);
      const __m128d b3 = _mm_loadu_pd(bi + 6);
      __m128d ai = _mm_set1_pd(ar[i]);
      c00 = _mm_add_pd(c00, _mm_mul_pd(ai, b0));
      c01 = _mm_add_pd(c01, _mm_mul_pd(ai, b1));
      c02 = _mm_add_pd(c02, _mm_mul_pd(ai, b2));
      c03 = _mm_add_pd(c03, _mm_mul_pd(ai, b3));
      ai = _mm_set1_pd(ar[8 + i]);
      c10 = _mm_add_pd(c10, _mm_mul_pd(ai, b0));
      c11 = _mm_add_pd(c11, _mm_mul_pd(ai, b1));
      c12 = _mm_add_pd(c12, _mm_mul_pd(ai, b2));
      c13 = _mm_add_pd(c13, _mm_mul_pd(ai, b3));
    }
    double* o = out + r * 8;
    _mm_storeu_pd(o, c00);
    _mm_storeu_pd(o + 2, c01);
    _mm_storeu_pd(o + 4, c02);
    _mm_storeu_pd(o + 6, c03);
    _mm_storeu_pd(o + 8, c10);
    _mm_storeu_pd(o + 10, c11);
    _mm_storeu_pd(o + 12, c12);
    _mm_storeu_pd(o + 14, c13);
  }
}

void fdct8x8Sse2(const double* spatial, double* freq) {
  const detail::DctBasis& basis = detail::dctBasis();
  alignas(16) double tmp[64];
  matmul8Sse2(spatial, &basis.ct[0][0], tmp);
  matmul8Sse2(&basis.c[0][0], tmp, freq);
}

void idct8x8Sse2(const double* freq, double* spatial) {
  const detail::DctBasis& basis = detail::dctBasis();
  alignas(16) double tmp[64];
  matmul8Sse2(freq, &basis.c[0][0], tmp);
  matmul8Sse2(&basis.ct[0][0], tmp, spatial);
}

void quantizeBlockSse2(const double* freq, const int* quant,
                       int* zigzagOut) {
  // lround(q) exactly (see the AVX2 variant).  SSE2 has no roundpd, so
  // trunc(q) goes through int32, which the |q| < 2^31 contract allows.
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d minusHalf = _mm_set1_pd(-0.5);
  const __m128d one = _mm_set1_pd(1.0);
  alignas(16) int q[64];
  for (int j = 0; j < 64; j += 2) {
    const __m128d x = _mm_div_pd(
        _mm_loadu_pd(freq + j),
        _mm_cvtepi32_pd(_mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(quant + j))));
    const __m128d t = _mm_cvtepi32_pd(_mm_cvttpd_epi32(x));
    const __m128d r = _mm_sub_pd(x, t);
    const __m128d step =
        _mm_sub_pd(_mm_and_pd(_mm_cmpge_pd(r, half), one),
                   _mm_and_pd(_mm_cmple_pd(r, minusHalf), one));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + j),
                     _mm_cvttpd_epi32(_mm_add_pd(t, step)));
  }
  for (int i = 0; i < 64; ++i) zigzagOut[i] = q[detail::kZigzag[i]];
}

void rgbToYcbcrPlanesSse2(const Rgb8* px, std::size_t n, double* y,
                          double* cb, double* cr) {
  const __m128d c128 = _mm_set1_pd(128.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d r = _mm_set_pd(px[i + 1].r, px[i].r);
    const __m128d g = _mm_set_pd(px[i + 1].g, px[i].g);
    const __m128d b = _mm_set_pd(px[i + 1].b, px[i].b);
    _mm_storeu_pd(y + i,
                  _mm_add_pd(_mm_add_pd(_mm_mul_pd(_mm_set1_pd(kLumaR), r),
                                        _mm_mul_pd(_mm_set1_pd(kLumaG), g)),
                             _mm_mul_pd(_mm_set1_pd(kLumaB), b)));
    _mm_storeu_pd(
        cb + i,
        _mm_add_pd(c128,
                   _mm_add_pd(_mm_sub_pd(_mm_mul_pd(_mm_set1_pd(-0.168736), r),
                                         _mm_mul_pd(_mm_set1_pd(0.331264), g)),
                              _mm_mul_pd(_mm_set1_pd(0.5), b))));
    _mm_storeu_pd(
        cr + i,
        _mm_add_pd(c128,
                   _mm_sub_pd(_mm_sub_pd(_mm_mul_pd(_mm_set1_pd(0.5), r),
                                         _mm_mul_pd(_mm_set1_pd(0.418688), g)),
                              _mm_mul_pd(_mm_set1_pd(0.081312), b))));
  }
  detail::rgbToYcbcrPlanesScalar(px + i, n - i, y + i, cb + i, cr + i);
}

/// clamp8 of 2 doubles as 2 x i32 in the low lanes.
inline __m128i clamp8x2(__m128d v) {
  const __m128d lim = _mm_set1_pd(255.0);
  __m128d t = _mm_add_pd(v, _mm_set1_pd(0.5));
  const __m128d hi = _mm_cmpge_pd(v, lim);
  t = _mm_or_pd(_mm_and_pd(hi, lim), _mm_andnot_pd(hi, t));
  t = _mm_andnot_pd(_mm_cmple_pd(v, _mm_setzero_pd()), t);  // v <= 0 -> 0
  return _mm_cvttpd_epi32(t);
}

void ycbcrPlanesToRgbSse2(const double* y, const double* cb,
                          const double* cr, std::size_t n, Rgb8* out) {
  const __m128d c128 = _mm_set1_pd(128.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d yv = _mm_loadu_pd(y + i);
    const __m128d cbm = _mm_sub_pd(_mm_loadu_pd(cb + i), c128);
    const __m128d crm = _mm_sub_pd(_mm_loadu_pd(cr + i), c128);
    const __m128i r =
        clamp8x2(_mm_add_pd(yv, _mm_mul_pd(_mm_set1_pd(1.402), crm)));
    const __m128i g = clamp8x2(
        _mm_sub_pd(_mm_sub_pd(yv, _mm_mul_pd(_mm_set1_pd(0.344136), cbm)),
                   _mm_mul_pd(_mm_set1_pd(0.714136), crm)));
    const __m128i b =
        clamp8x2(_mm_add_pd(yv, _mm_mul_pd(_mm_set1_pd(1.772), cbm)));
    // Lane p holds r | g << 8 | b << 16 of pixel i + p.
    const __m128i rgb = _mm_or_si128(
        r, _mm_or_si128(_mm_slli_epi32(g, 8), _mm_slli_epi32(b, 16)));
    const std::uint64_t two =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(rgb));
    out[i] = Rgb8{static_cast<std::uint8_t>(two),
                  static_cast<std::uint8_t>(two >> 8),
                  static_cast<std::uint8_t>(two >> 16)};
    out[i + 1] = Rgb8{static_cast<std::uint8_t>(two >> 32),
                      static_cast<std::uint8_t>(two >> 40),
                      static_cast<std::uint8_t>(two >> 48)};
  }
  detail::ycbcrPlanesToRgbScalar(y + i, cb + i, cr + i, n - i, out + i);
}

}  // namespace

const KernelTable& sse2Table() noexcept {
  static constexpr KernelTable kTable{
      Level::kSse2,        profileRgbSse2,    profileGraySse2,
      maxChannelHistogramSse2, lumaPlaneSse2, histAccumulateSse2,
      emdNumeratorSse2,    scalePixelsSse2,   countClippedSse2,
      tailBudgetLevelSse2, lowPointSse2,      highPointSse2,
      fdct8x8Sse2,         idct8x8Sse2,       quantizeBlockSse2,
      rgbToYcbcrPlanesSse2, ycbcrPlanesToRgbSse2,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // x86-64
