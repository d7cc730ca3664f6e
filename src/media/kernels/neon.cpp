// NEON kernel variants for aarch64.  Advanced SIMD is mandatory on
// aarch64, so this table is always available there and kernels.cpp selects
// it by default.
//
// The double-precision kernels vectorize two pixels per 128-bit vector
// (float64x2) with the exact scalar IEEE op sequence per lane -- vmulq_f64
// and vaddq_f64 only, no vfmaq -- mirroring the SSE2 variant.  Integer
// kernels are exact by construction.  This file deliberately stays
// conservative: it is compiled on hardware the maintainers cannot always
// bench, so it favours obviously-correct lane mappings over aggressive
// unrolling.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

void profileRgbNeon(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  const float64x2_t cR = vdupq_n_f64(kLumaR);
  const float64x2_t cG = vdupq_n_f64(kLumaG);
  const float64x2_t cB = vdupq_n_f64(kLumaB);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t lim = vdupq_n_f64(255.0);
  std::uint32_t h0[256] = {};
  std::uint32_t h1[256] = {};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Rgb8 p0 = px[i];
    const Rgb8 p1 = px[i + 1];
    const float64x2_t rd = {static_cast<double>(p0.r),
                            static_cast<double>(p1.r)};
    const float64x2_t gd = {static_cast<double>(p0.g),
                            static_cast<double>(p1.g)};
    const float64x2_t bd = {static_cast<double>(p0.b),
                            static_cast<double>(p1.b)};
    const float64x2_t y = vaddq_f64(
        vaddq_f64(vmulq_f64(rd, cR), vmulq_f64(gd, cG)), vmulq_f64(bd, cB));
    float64x2_t t = vaddq_f64(y, half);
    // luma8 compares (y + 0.5) >= 255 before truncating.
    const uint64x2_t ge = vcgeq_f64(t, lim);
    t = vbslq_f64(ge, lim, t);
    const int64x2_t yi = vcvtq_s64_f64(t);  // toward zero, like the cast
    const int y0 = static_cast<int>(vgetq_lane_s64(yi, 0));
    const int y1 = static_cast<int>(vgetq_lane_s64(yi, 1));
    ++h0[y0];
    ++h1[y1];
    out.lumaSum += static_cast<std::uint64_t>(y0 + y1);
    minAcc = std::min(minAcc, std::min(y0, y1));
    maxAcc = std::max(maxAcc, std::max(y0, y1));
  }
  if (i != 0) {
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h0[v]) + h1[v];
    }
  }
  detail::profileRgbRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGrayNeon(const std::uint8_t* px, std::size_t n,
                     FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  std::uint32_t h[4][256] = {};
  std::uint64_t sum = 0;
  uint8x16_t minV = vdupq_n_u8(0xFF);
  uint8x16_t maxV = vdupq_n_u8(0);
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(px + i);
    sum += vaddlvq_u8(v);
    minV = vminq_u8(minV, v);
    maxV = vmaxq_u8(maxV, v);
    vst1q_u8(buf, v);
    for (int j = 0; j < 16; ++j) ++h[j & 3][buf[j]];
  }
  if (i != 0) {
    out.lumaSum = sum;
    minAcc = vminvq_u8(minV);
    maxAcc = vmaxvq_u8(maxV);
    for (int v = 0; v < 256; ++v) {
      out.hist[v] = static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                    h[3][v];
    }
  }
  detail::profileGrayRange(px + i, n - i, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramNeon(const Rgb8* px, std::size_t n,
                             std::uint64_t* hist) {
  // vld3q_u8 deinterleaves 16 packed pixels into R/G/B planes; one
  // max-chain yields 16 per-pixel channel maxima.  Banks fold by ADDING
  // into the caller's histogram (the scalar kernel accumulates).
  std::uint32_t h[4][256] = {};
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t i = 0;
  alignas(16) std::uint8_t buf[16];
  for (; i + 16 <= n; i += 16) {
    const uint8x16x3_t p = vld3q_u8(bytes + 3 * i);
    const uint8x16_t m =
        vmaxq_u8(vmaxq_u8(p.val[0], p.val[1]), p.val[2]);
    vst1q_u8(buf, m);
    for (int j = 0; j < 16; ++j) ++h[j & 3][buf[j]];
  }
  if (i != 0) {
    for (int v = 0; v < 256; ++v) {
      hist[v] += static_cast<std::uint64_t>(h[0][v]) + h[1][v] + h[2][v] +
                 h[3][v];
    }
  }
  detail::maxChannelRange(px + i, n - i, hist);
}

void lumaPlaneNeon(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  const float64x2_t cR = vdupq_n_f64(kLumaR);
  const float64x2_t cG = vdupq_n_f64(kLumaG);
  const float64x2_t cB = vdupq_n_f64(kLumaB);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t lim = vdupq_n_f64(255.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const Rgb8 p0 = px[i];
    const Rgb8 p1 = px[i + 1];
    const float64x2_t rd = {static_cast<double>(p0.r),
                            static_cast<double>(p1.r)};
    const float64x2_t gd = {static_cast<double>(p0.g),
                            static_cast<double>(p1.g)};
    const float64x2_t bd = {static_cast<double>(p0.b),
                            static_cast<double>(p1.b)};
    const float64x2_t y = vaddq_f64(
        vaddq_f64(vmulq_f64(rd, cR), vmulq_f64(gd, cG)), vmulq_f64(bd, cB));
    float64x2_t t = vaddq_f64(y, half);
    const uint64x2_t ge = vcgeq_f64(t, lim);
    t = vbslq_f64(ge, lim, t);
    const int64x2_t yi = vcvtq_s64_f64(t);
    out[i] = static_cast<std::uint8_t>(vgetq_lane_s64(yi, 0));
    out[i + 1] = static_cast<std::uint8_t>(vgetq_lane_s64(yi, 1));
  }
  detail::lumaPlaneRange(px + i, n - i, out + i);
}

void histAccumulateNeon(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; v += 2) {
    vst1q_u64(dst + v, vaddq_u64(vld1q_u64(dst + v), vld1q_u64(src + v)));
  }
}

Uint128 emdNumeratorNeon(const std::uint64_t* a, std::uint64_t totalA,
                         const std::uint64_t* b, std::uint64_t totalB) {
  if (totalA > detail::kEmdFastMaxTotal || totalB > detail::kEmdFastMaxTotal) {
    return detail::emdNumeratorExact(a, totalA, b, totalB);
  }
  // Exact in 64 bits for totals <= 2^27 (see kEmdFastMaxTotal).
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
  return static_cast<Uint128>(acc);
}

void scalePixelsNeon(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  if (k < 0.0) {
    detail::scaleRange(src, n, k, dst);
    return;
  }
  const float64x2_t kv = vdupq_n_f64(k);
  const float64x2_t half = vdupq_n_f64(0.5);
  const float64x2_t lim = vdupq_n_f64(255.0);
  const std::uint8_t* in = reinterpret_cast<const std::uint8_t*>(src);
  std::uint8_t* outp = reinterpret_cast<std::uint8_t*>(dst);
  const std::size_t channels = n * 3;
  std::size_t c = 0;
  for (; c + 2 <= channels; c += 2) {
    const float64x2_t v = {static_cast<double>(in[c]),
                           static_cast<double>(in[c + 1])};
    // clamp8(v*k): the high clamp compares the PRODUCT against 255, before
    // the + 0.5; v*k >= 0 so the low clamp cannot fire.
    const float64x2_t y = vmulq_f64(v, kv);
    float64x2_t t = vaddq_f64(y, half);
    const uint64x2_t ge = vcgeq_f64(y, lim);
    t = vbslq_f64(ge, lim, t);
    const int64x2_t yi = vcvtq_s64_f64(t);
    outp[c] = static_cast<std::uint8_t>(vgetq_lane_s64(yi, 0));
    outp[c + 1] = static_cast<std::uint8_t>(vgetq_lane_s64(yi, 1));
  }
  if (c < channels) {
    outp[c] = clamp8(static_cast<double>(in[c]) * k);
  }
}

std::size_t countClippedNeon(const Rgb8* px, std::size_t n, double k) {
  if (k < 0.0) return detail::countClippedRange(px, n, k);
  const int threshold = detail::clipThreshold(k);
  if (threshold > 255) return 0;
  const uint8x16_t tv = vdupq_n_u8(static_cast<std::uint8_t>(threshold));
  const std::uint8_t* bytes = reinterpret_cast<const std::uint8_t*>(px);
  std::size_t clipped = 0;
  std::size_t i = 0;
  // 16 pixels = 48 bytes: deinterleave with vld3q so each register holds
  // one channel, take the per-pixel channel max, compare, count 0xFF hits.
  for (; i + 16 <= n; i += 16) {
    const uint8x16x3_t v = vld3q_u8(bytes + 3 * i);
    const uint8x16_t mx = vmaxq_u8(vmaxq_u8(v.val[0], v.val[1]), v.val[2]);
    const uint8x16_t ge = vcgeq_u8(mx, tv);
    clipped += vaddlvq_u8(vshrq_n_u8(ge, 7));
  }
  return clipped + detail::countClippedRange(px + i, n - i, k);
}

int tailBudgetLevelNeon(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointNeon(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointNeon(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

}  // namespace

const KernelTable& neonTable() noexcept {
  static constexpr KernelTable kTable{
      Level::kNeon,        profileRgbNeon,    profileGrayNeon,
      maxChannelHistogramNeon, lumaPlaneNeon, histAccumulateNeon,
      emdNumeratorNeon,    scalePixelsNeon,   countClippedNeon,
      tailBudgetLevelNeon, lowPointNeon,      highPointNeon,
      // Codec kernels: scalar until an aarch64 runner can validate a
      // vector variant.
      detail::fdct8x8Scalar, detail::idct8x8Scalar,
      detail::quantizeBlockScalar, detail::rgbToYcbcrPlanesScalar,
      detail::ycbcrPlanesToRgbScalar,
  };
  return kTable;
}

}  // namespace anno::media::kernels

#endif  // aarch64
