// SSE2 kernel variants -- the x86-64 baseline level (every x86-64 CPU has
// SSE2, so this is the floor the dispatcher can always select on x86).
//
// Bit-identical contract: the double-precision kernels run each pixel
// through the exact scalar operation sequence, two pixels per vector; the
// integer kernels, the codec's included, are exact.  Clipped counting
// compares bytes against a
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

/// Low 32 bits of the lane-wise product (SSE2 has no pmulld): two
/// unsigned 32x32->64 multiplies, whose low halves equal the signed ones.
inline __m128i mullo32(__m128i a, __m128i b) {
  const __m128i even = _mm_mul_epu32(a, b);
  const __m128i odd =
      _mm_mul_epu32(_mm_srli_epi64(a, 32), _mm_srli_epi64(b, 32));
  return _mm_unpacklo_epi32(_mm_shuffle_epi32(even, 0x08),
                            _mm_shuffle_epi32(odd, 0x08));
}

/// fdctPass / idctPass lane ops: four int32 lanes.
struct Sse2Ops {
  static __m128i add(__m128i a, __m128i b) { return _mm_add_epi32(a, b); }
  static __m128i sub(__m128i a, __m128i b) { return _mm_sub_epi32(a, b); }
  static __m128i mul(__m128i a, std::int32_t c) {
    return mullo32(a, _mm_set1_epi32(c));
  }
  static __m128i shl(__m128i a, int n) { return _mm_slli_epi32(a, n); }
  static __m128i sra(__m128i a, int n) { return _mm_srai_epi32(a, n); }
  static __m128i constant(std::int32_t c) { return _mm_set1_epi32(c); }
  static __m128i descale(__m128i a, int n) {
    return _mm_srai_epi32(_mm_add_epi32(a, _mm_set1_epi32(1 << (n - 1))), n);
  }
};

/// An 8x8 int32 matrix as two halves of eight 4-lane vectors: m[h][i]
/// holds lanes 4h..4h+3 of vector i.
using Block4 = __m128i[2][8];

/// out[h][c] = column c of `in`, restricted to rows 4h..4h+3 (transpose).
inline void transpose8x8(const Block4& in, Block4& out) {
  for (int h = 0; h < 2; ++h) {
    for (int c = 0; c < 2; ++c) {
      const __m128i* r = &in[c][4 * h];
      const __m128i t0 = _mm_unpacklo_epi32(r[0], r[1]);
      const __m128i t1 = _mm_unpacklo_epi32(r[2], r[3]);
      const __m128i t2 = _mm_unpackhi_epi32(r[0], r[1]);
      const __m128i t3 = _mm_unpackhi_epi32(r[2], r[3]);
      out[h][4 * c] = _mm_unpacklo_epi64(t0, t1);
      out[h][4 * c + 1] = _mm_unpackhi_epi64(t0, t1);
      out[h][4 * c + 2] = _mm_unpacklo_epi64(t2, t3);
      out[h][4 * c + 3] = _mm_unpackhi_epi64(t2, t3);
    }
  }
}

// Vector i of a Block4 is row i of the block (as in the AVX2 variant),
// split into column halves.
void fdct8x8Sse2(const std::int16_t* spatial, std::int32_t* freq) {
  Block4 r;
  Block4 t;
  for (int y = 0; y < 8; ++y) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(spatial + 8 * y));
    r[0][y] = _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
    r[1][y] = _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
  }
  transpose8x8(r, t);
  for (int h = 0; h < 2; ++h) {
    detail::fdctPass<Sse2Ops>(t[h], r[h], detail::kFdctRowDc,
                              detail::kFdctRowAc);
  }
  transpose8x8(r, t);
  for (int h = 0; h < 2; ++h) {
    detail::fdctPass<Sse2Ops>(t[h], r[h], detail::kFdctColDc,
                              detail::kFdctColAc);
  }
  for (int j = 0; j < 8; ++j) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(freq + 8 * j), r[0][j]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(freq + 8 * j + 4), r[1][j]);
  }
}

void idct8x8Sse2(const std::int32_t* freq, std::int16_t* spatial) {
  Block4 r;
  Block4 t;
  for (int j = 0; j < 8; ++j) {
    r[0][j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(freq + 8 * j));
    r[1][j] =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(freq + 8 * j + 4));
  }
  for (int h = 0; h < 2; ++h) {
    detail::idctPass<Sse2Ops>(r[h], t[h], detail::kIdctColShift);
  }
  transpose8x8(t, r);
  for (int h = 0; h < 2; ++h) {
    detail::idctRowPass<Sse2Ops>(r[h], t[h]);
  }
  transpose8x8(t, r);
  for (int y = 0; y < 8; ++y) {
    // packs saturates to int16 exactly like the reference's clamp.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(spatial + 8 * y),
                     _mm_packs_epi32(r[0][y], r[1][y]));
  }
}

std::uint64_t quantizeBlockSse2(const std::int32_t* freq,
                                const QuantTable& table,
                                std::int32_t* zigzagOut) {
  const auto& zz = detail::kZigzag;
  std::uint64_t zeros = 0;
  for (int i = 0; i < 64; i += 4) {
    // No gather before AVX2: pick the zigzag coefficients one by one.
    const __m128i c = _mm_setr_epi32(freq[zz[i]], freq[zz[i + 1]],
                                     freq[zz[i + 2]], freq[zz[i + 3]]);
    const __m128i sign = _mm_srai_epi32(c, 31);
    const __m128i n = _mm_srli_epi32(
        _mm_add_epi32(
            _mm_sub_epi32(_mm_xor_si128(c, sign), sign),
            _mm_load_si128(reinterpret_cast<const __m128i*>(table.half + i))),
        kCoefFracBits);
    // n < 2^12 and recip <= 2^20: the unsigned product fits 32 bits.
    const __m128i magnitude = _mm_srli_epi32(
        mullo32(n, _mm_load_si128(
                       reinterpret_cast<const __m128i*>(table.recip + i))),
        QuantTable::kQuantShift);
    const __m128i level =
        _mm_sub_epi32(_mm_xor_si128(magnitude, sign), sign);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(zigzagOut + i), level);
    zeros |= static_cast<std::uint64_t>(_mm_movemask_ps(
                 _mm_castsi128_ps(_mm_cmpeq_epi32(level, _mm_setzero_si128()))))
             << i;
  }
  return ~zeros;
}

/// Two int16 weights (a, b) repeated across the lanes, for madd pairs.
inline __m128i weights(std::int32_t a, std::int32_t b) {
  return _mm_set1_epi32(static_cast<int>(
      static_cast<std::uint16_t>(a) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(b)) << 16)));
}

void rgbToYcbcrPlanesSse2(const Rgb8* px, std::size_t n, std::int16_t* y,
                          std::int16_t* cb, std::int16_t* cr) {
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  const __m128i lowBytes = _mm_set1_epi32(0x00FF00FF);
  const __m128i lowByte = _mm_set1_epi32(0xFF);
  const __m128i yRB = weights(detail::kYR, detail::kYB);
  const __m128i yG = weights(detail::kYG, 0);
  const __m128i cbRB = weights(detail::kCbR, detail::kCbB);
  const __m128i cbG = weights(detail::kCbG, 0);
  const __m128i crRB = weights(detail::kCrR, detail::kCrB);
  const __m128i crG = weights(detail::kCrG, 0);
  const __m128i lumaRound = _mm_set1_epi32(detail::kToPlaneRound);
  const __m128i chromaRound = _mm_set1_epi32(detail::kToChromaRound);
  const auto plane = [](__m128i rb, __m128i g, __m128i wRB, __m128i wG,
                        __m128i round) {
    return _mm_srai_epi32(
        _mm_add_epi32(_mm_add_epi32(_mm_madd_epi16(rb, wRB),
                                    _mm_madd_epi16(g, wG)),
                      round),
        detail::kToPlaneShift);
  };
  std::size_t i = 0;
  // Eight pixels per iteration as two 16-byte loads of 4 pixels; the
  // second reads 4 bytes past pixel i+7, hence the i+10 guard.
  for (; i + 10 <= n; i += 8) {
    __m128i yv[2];
    __m128i cbv[2];
    __m128i crv[2];
    for (int h = 0; h < 2; ++h) {
      const __m128i v = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bytes + 3 * (i + 4 * h)));
      // Lane k = bytes 3k..3k+3: R, G, B and the next pixel's R.
      const __m128i p = _mm_unpacklo_epi64(
          _mm_unpacklo_epi32(v, _mm_srli_si128(v, 3)),
          _mm_unpacklo_epi32(_mm_srli_si128(v, 6), _mm_srli_si128(v, 9)));
      const __m128i rb = _mm_and_si128(p, lowBytes);  // (R, B) pairs
      const __m128i g =
          _mm_and_si128(_mm_srli_epi32(p, 8), lowByte);  // (G, 0) pairs
      yv[h] = plane(rb, g, yRB, yG, lumaRound);
      cbv[h] = plane(rb, g, cbRB, cbG, chromaRound);
      crv[h] = plane(rb, g, crRB, crG, chromaRound);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(y + i),
                     _mm_packs_epi32(yv[0], yv[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cb + i),
                     _mm_packs_epi32(cbv[0], cbv[1]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cr + i),
                     _mm_packs_epi32(crv[0], crv[1]));
  }
  detail::rgbToYcbcrPlanesScalar(px + i, n - i, y + i, cb + i, cr + i);
}

void ycbcrPlanesToRgbSse2(const std::int16_t* y, const std::int16_t* cb,
                          const std::int16_t* cr, std::size_t n, Rgb8* out) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i rW = weights(detail::kRgbY, detail::kRCr);
  const __m128i gW = weights(detail::kRgbY, detail::kGCb);
  const __m128i gCrW = weights(detail::kGCr, 0);
  const __m128i bW = weights(detail::kRgbY, detail::kBCb);
  const __m128i rBias = _mm_set1_epi32(detail::kRBias);
  const __m128i gBias = _mm_set1_epi32(detail::kGBias);
  const __m128i bBias = _mm_set1_epi32(detail::kBBias);
  const __m128i pixel0 = _mm_set1_epi64x(0xFFFFFF);
  const __m128i pixel1 = _mm_set1_epi64x(0xFFFFFF000000);
  std::uint8_t* dst = reinterpret_cast<std::uint8_t*>(out);
  std::size_t i = 0;
  // Eight pixels per iteration, stored as four 8-byte writes of two
  // pixels each; the last writes 2 bytes into pixel i+8, which the next
  // iteration or the tail overwrites -- hence the i+9 guard.
  for (; i + 9 <= n; i += 8) {
    const __m128i yv = _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + i));
    const __m128i cbv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cb + i));
    const __m128i crv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cr + i));
    __m128i r[2];
    __m128i g[2];
    __m128i b[2];
    for (int h = 0; h < 2; ++h) {
      const __m128i ycr = h == 0 ? _mm_unpacklo_epi16(yv, crv)
                                 : _mm_unpackhi_epi16(yv, crv);
      const __m128i ycb = h == 0 ? _mm_unpacklo_epi16(yv, cbv)
                                 : _mm_unpackhi_epi16(yv, cbv);
      const __m128i cr0 = h == 0 ? _mm_unpacklo_epi16(crv, zero)
                                 : _mm_unpackhi_epi16(crv, zero);
      r[h] = _mm_srai_epi32(_mm_add_epi32(_mm_madd_epi16(ycr, rW), rBias),
                            detail::kToRgbShift);
      g[h] = _mm_srai_epi32(
          _mm_add_epi32(_mm_add_epi32(_mm_madd_epi16(ycb, gW),
                                      _mm_madd_epi16(cr0, gCrW)),
                        gBias),
          detail::kToRgbShift);
      b[h] = _mm_srai_epi32(_mm_add_epi32(_mm_madd_epi16(ycb, bW), bBias),
                            detail::kToRgbShift);
    }
    // packus clamps to 0..255 exactly like the reference.
    const __m128i rgBytes = _mm_packus_epi16(_mm_packs_epi32(r[0], r[1]),
                                             _mm_packs_epi32(g[0], g[1]));
    const __m128i bBytes =
        _mm_packus_epi16(_mm_packs_epi32(b[0], b[1]), zero);
    const __m128i rg = _mm_unpacklo_epi8(rgBytes, _mm_srli_si128(rgBytes, 8));
    const __m128i b0 = _mm_unpacklo_epi8(bBytes, zero);
    std::uint8_t* d = dst + 3 * i;
    for (int h = 0; h < 2; ++h) {
      // Lane p = R | G << 8 | B << 16 of pixel 4h + p.
      const __m128i rgb = h == 0 ? _mm_unpacklo_epi16(rg, b0)
                                 : _mm_unpackhi_epi16(rg, b0);
      // Close the gap in each 64-bit pair: 6 packed bytes per qword.
      const __m128i two =
          _mm_or_si128(_mm_and_si128(rgb, pixel0),
                       _mm_and_si128(_mm_srli_epi64(rgb, 8), pixel1));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(d + 12 * h), two);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(d + 12 * h + 6),
                       _mm_unpackhi_epi64(two, two));
    }
  }
  detail::ycbcrPlanesToRgbScalar(y + i, cb + i, cr + i, n - i, out + i);
}

}  // namespace

const KernelTable& sse2Table() noexcept {
  static constexpr KernelTable kTable{
      // profileRgb and lumaPlane: the RGB deinterleave costs baseline SSE2
      // (no pshufb, no widening loads) more than two-wide double math
      // saves; the measured variants tied scalar, so scalar it is.
      // histAccumulate: at -O3 the compiler turns the scalar loop into the
      // same paddq loop the hand-written variant was, so it bought nothing.
      Level::kSse2,        detail::profileRgbScalar, profileGraySse2,
      maxChannelHistogramSse2, detail::lumaPlaneScalar,
      detail::histAccumulateScalar,
      emdNumeratorSse2,    scalePixelsSse2,   countClippedSse2,
      tailBudgetLevelSse2, lowPointSse2,      highPointSse2,
      fdct8x8Sse2,         idct8x8Sse2,       quantizeBlockSse2,
      rgbToYcbcrPlanesSse2, ycbcrPlanesToRgbSse2,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // x86-64
