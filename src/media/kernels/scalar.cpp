// Scalar reference kernels: the semantic definition the AVX2 variants are
// property-tested against.  Clarity over speed -- the dispatcher selects
// this level on CPUs without AVX2 (aarch64 included), or when forced with
// ANNO_SIMD=scalar.
#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "media/kernels/kernels.h"
#include "media/kernels/kernels_internal.h"

namespace anno::media::kernels {
namespace {

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

Uint128 emdNumeratorScalar(const std::uint64_t* a, std::uint64_t totalA,
                           const std::uint64_t* b, std::uint64_t totalB) {
  return detail::emdNumeratorExact(a, totalA, b, totalB);
}

void profileRgbScalar(const Rgb8* px, std::size_t n, FrameProfile& out) {
  out = FrameProfile{};
  int minAcc = 255;
  int maxAcc = 0;
  detail::profileRgbRange(px, n, out, minAcc, maxAcc);
  detail::finishProfile(out, n, minAcc, maxAcc);
}

void lumaPlaneScalar(const Rgb8* px, std::size_t n, std::uint8_t* out) {
  detail::lumaPlaneRange(px, n, out);
}

void histAccumulateScalar(std::uint64_t* dst, const std::uint64_t* src) {
  for (int v = 0; v < 256; ++v) dst[v] += src[v];
}

/// fdctPass / idctPass lane ops on one int32 (the reference lane).
struct ScalarOps {
  static std::int32_t add(std::int32_t a, std::int32_t b) { return a + b; }
  static std::int32_t sub(std::int32_t a, std::int32_t b) { return a - b; }
  static std::int32_t mul(std::int32_t a, std::int32_t c) { return a * c; }
  static std::int32_t shl(std::int32_t a, int n) { return a * (1 << n); }
  static std::int32_t sra(std::int32_t a, int n) { return a >> n; }
  static std::int32_t constant(std::int32_t c) { return c; }
  /// Round-half-up arithmetic shift right (libjpeg's DESCALE).
  static std::int32_t descale(std::int32_t a, int n) {
    return (a + (1 << (n - 1))) >> n;
  }
};

void fdct8x8Scalar(const std::int16_t* spatial, std::int32_t* freq) {
  std::int32_t tmp[64];
  std::int32_t d[8];
  std::int32_t o[8];
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) d[x] = spatial[y * 8 + x];
    detail::fdctPass<ScalarOps>(d, o, detail::kFdctRowDc,
                                detail::kFdctRowAc);
    for (int k = 0; k < 8; ++k) tmp[y * 8 + k] = o[k];
  }
  for (int k = 0; k < 8; ++k) {
    for (int y = 0; y < 8; ++y) d[y] = tmp[y * 8 + k];
    detail::fdctPass<ScalarOps>(d, o, detail::kFdctColDc,
                                detail::kFdctColAc);
    for (int j = 0; j < 8; ++j) freq[j * 8 + k] = o[j];
  }
}

void idct8x8Scalar(const std::int32_t* freq, std::int16_t* spatial) {
  std::int32_t tmp[64];
  std::int32_t in[8];
  std::int32_t o[8];
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) in[j] = freq[j * 8 + k];
    detail::idctPass<ScalarOps>(in, o, detail::kIdctColShift);
    for (int y = 0; y < 8; ++y) tmp[y * 8 + k] = o[y];
  }
  for (int y = 0; y < 8; ++y) {
    detail::idctRowPass<ScalarOps>(tmp + y * 8, o);
    for (int x = 0; x < 8; ++x) {
      spatial[y * 8 + x] = static_cast<std::int16_t>(
          std::clamp<std::int32_t>(o[x], INT16_MIN, INT16_MAX));
    }
  }
}

std::uint64_t quantizeBlockScalar(const std::int32_t* freq,
                                  const QuantTable& table,
                                  std::int32_t* zigzagOut) {
  std::uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    const int z = detail::kZigzag[i];
    zigzagOut[i] = detail::quantize(freq[z], table.half[i], table.recip[i]);
    mask |= static_cast<std::uint64_t>(zigzagOut[i] != 0) << i;
  }
  return mask;
}

}  // namespace

namespace detail {

inline std::int16_t toY(int r, int g, int b) {
  return static_cast<std::int16_t>((kYR * r + kYG * g + kYB * b +
                                    kToPlaneRound) >> kToPlaneShift);
}
inline std::int16_t toCb(int r, int g, int b) {
  return static_cast<std::int16_t>((kCbR * r + kCbG * g + kCbB * b +
                                    kToChromaRound) >> kToPlaneShift);
}
inline std::int16_t toCr(int r, int g, int b) {
  return static_cast<std::int16_t>((kCrR * r + kCrG * g + kCrB * b +
                                    kToChromaRound) >> kToPlaneShift);
}

inline std::uint8_t clampToByte(std::int32_t v) {
  return static_cast<std::uint8_t>(v < 0 ? 0 : v > 255 ? 255 : v);
}

inline Rgb8 toRgb(std::int32_t y, std::int32_t cb, std::int32_t cr) {
  return Rgb8{
      clampToByte((kRgbY * y + kRCr * cr + kRBias) >> kToRgbShift),
      clampToByte((kRgbY * y + kGCb * cb + kGCr * cr + kGBias) >>
                  kToRgbShift),
      clampToByte((kRgbY * y + kBCb * cb + kBBias) >> kToRgbShift)};
}

/// The conversion loop, with the channel lookup compiled in or out, so the
/// untabled loop carries no per-pixel branch.
template <bool kTabled>
void convertToPlanes(const Rgb8* px, std::size_t n, const std::uint8_t* table,
                     std::int16_t* y, std::int16_t* cb, std::int16_t* cr) {
  for (std::size_t i = 0; i < n; ++i) {
    int r = px[i].r;
    int g = px[i].g;
    int b = px[i].b;
    if constexpr (kTabled) {
      r = table[r];
      g = table[g];
      b = table[b];
    }
    y[i] = toY(r, g, b);
    cb[i] = toCb(r, g, b);
    cr[i] = toCr(r, g, b);
  }
}

void rgbToYcbcrPlanesScalar(const Rgb8* px, std::size_t n,
                            const std::uint8_t* table, std::int16_t* y,
                            std::int16_t* cb, std::int16_t* cr) {
  if (table != nullptr) {
    convertToPlanes<true>(px, n, table, y, cb, cr);
  } else {
    convertToPlanes<false>(px, n, table, y, cb, cr);
  }
}

void ycbcrPlanesToRgbScalar(const std::int16_t* y, const std::int16_t* cb,
                            const std::int16_t* cr, std::size_t n,
                            Rgb8* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = toRgb(y[i], cb[i], cr[i]);
}

}  // namespace detail

QuantTable makeQuantTable(const int* divisors) {
  QuantTable t{};
  for (int i = 0; i < 64; ++i) {
    const int d = divisors[detail::kZigzag[i]];
    if (d < 1 || d > 255) {
      throw std::invalid_argument("makeQuantTable: divisor outside 1..255");
    }
    t.divisor[detail::kZigzag[i]] = d;
    t.half[i] = d << (kCoefFracBits - 1);
    t.recip[i] = static_cast<std::uint32_t>(
        ((std::uint32_t{1} << QuantTable::kQuantShift) + d - 1) / d);
  }
  return t;
}

const KernelTable& scalarTable() noexcept {
  static constexpr KernelTable kTable{
      Level::kScalar,      profileRgbScalar,   profileGrayScalar,
      maxChannelHistogramScalar, lumaPlaneScalar, histAccumulateScalar,
      emdNumeratorScalar,  fdct8x8Scalar,      idct8x8Scalar,
      quantizeBlockScalar,
      detail::rgbToYcbcrPlanesScalar, detail::ycbcrPlanesToRgbScalar,
  };
  return kTable;
}

}  // namespace anno::media::kernels
