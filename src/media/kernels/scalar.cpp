// Scalar reference kernels: the semantic definition every SIMD variant is
// property-tested against.  Clarity over speed -- the dispatcher never
// selects this level on x86-64 (SSE2 is baseline) unless forced with
// ANNO_SIMD=scalar.
#include <cmath>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

void profileRgbScalar(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileRgbRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void profileGrayScalar(const std::uint8_t* px, std::size_t n,
                       FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileGrayRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void maxChannelHistogramScalar(const Rgb8* px, std::size_t n,
                               std::uint64_t* hist) {
  detail::maxChannelRange(px, n, hist);
}

void lumaPlaneScalar(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  detail::lumaPlaneRange(px, n, out);
}

void histAccumulateScalar(std::uint64_t* dst, const std::uint64_t* src) {
  detail::histAccumulateRange(dst, src);
}

Uint128 emdNumeratorScalar(const std::uint64_t* a, std::uint64_t totalA,
                           const std::uint64_t* b, std::uint64_t totalB) {
  return detail::emdNumeratorExact(a, totalA, b, totalB);
}

void scalePixelsScalar(const Rgb8* src, std::size_t n, double k, Rgb8* dst) {
  detail::scaleRange(src, n, k, dst);
}

std::size_t countClippedScalar(const Rgb8* px, std::size_t n, double k) {
  return detail::countClippedRange(px, n, k);
}

int tailBudgetLevelScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::tailBudgetLevelRange(counts, budget);
}

int lowPointScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::lowPointRange(counts, budget);
}

int highPointScalar(const std::uint64_t* counts, std::uint64_t budget) {
  return detail::highPointRange(counts, budget);
}

}  // namespace

namespace detail {

const DctBasis& dctBasis() noexcept {
  static const DctBasis basis = [] {
    constexpr double kPi = 3.14159265358979323846;
    DctBasis b{};
    for (int k = 0; k < 8; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        b.c[k][n] = ck * std::cos((2.0 * n + 1.0) * k * kPi / 16.0);
        b.ct[n][k] = b.c[k][n];
      }
    }
    return b;
  }();
  return basis;
}

void fdct8x8Scalar(const double* spatial, double* freq) {
  const auto& C = dctBasis().c;
  // Separable: rows then columns.
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int x = 0; x < 8; ++x) acc += spatial[y * 8 + x] * C[k][x];
      tmp[y * 8 + k] = acc;
    }
  }
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + k] * C[j][y];
      freq[j * 8 + k] = acc;
    }
  }
}

void idct8x8Scalar(const double* freq, double* spatial) {
  const auto& C = dctBasis().c;
  double tmp[64];
  for (int j = 0; j < 8; ++j) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += freq[j * 8 + k] * C[k][x];
      tmp[j * 8 + x] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int j = 0; j < 8; ++j) acc += tmp[j * 8 + x] * C[j][y];
      spatial[y * 8 + x] = acc;
    }
  }
}

void quantizeBlockScalar(const double* freq, const int* quant,
                         int* zigzagOut) {
  for (int i = 0; i < 64; ++i) {
    const double q = freq[kZigzag[i]] / quant[kZigzag[i]];
    zigzagOut[i] = static_cast<int>(std::lround(q));
  }
}

void rgbToYcbcrPlanesScalar(const Rgb8* px, std::size_t n, double* y,
                            double* cb, double* cr) {
  for (std::size_t i = 0; i < n; ++i) {
    const Rgb8& p = px[i];
    y[i] = kLumaR * p.r + kLumaG * p.g + kLumaB * p.b;
    cb[i] = 128.0 + (-0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b);
    cr[i] = 128.0 + (0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b);
  }
}

void ycbcrPlanesToRgbScalar(const double* y, const double* cb,
                            const double* cr, std::size_t n, Rgb8* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = y[i] + 1.402 * (cr[i] - 128.0);
    const double g =
        y[i] - 0.344136 * (cb[i] - 128.0) - 0.714136 * (cr[i] - 128.0);
    const double b = y[i] + 1.772 * (cb[i] - 128.0);
    out[i] = Rgb8{clamp8(r), clamp8(g), clamp8(b)};
  }
}

}  // namespace detail

const KernelTable& scalarTable() noexcept {
  static constexpr KernelTable kTable{
      Level::kScalar,        profileRgbScalar,    profileGrayScalar,
      maxChannelHistogramScalar, lumaPlaneScalar, histAccumulateScalar,
      emdNumeratorScalar,    scalePixelsScalar,   countClippedScalar,
      tailBudgetLevelScalar, lowPointScalar,      highPointScalar,
      detail::fdct8x8Scalar, detail::idct8x8Scalar,
      detail::quantizeBlockScalar, detail::rgbToYcbcrPlanesScalar,
      detail::ycbcrPlanesToRgbScalar,
  };
  return kTable;
}

}  // namespace anno::media::kernels
