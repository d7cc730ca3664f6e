// Property tests for the SIMD kernel layer: every available dispatch level
// must produce output BYTE-IDENTICAL to the scalar reference, on every
// input shape that exercises a different code path -- ragged tails (sizes
// not divisible by any vector width), empty and 1-pixel frames, full
// saturation, and randomized content.  See kernels.h for the contract.
#include "media/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "compensate/compensate.h"
#include "media/codec.h"
#include "media/dct.h"
#include "media/histogram.h"
#include "media/image.h"
#include "media/luminance.h"
#include "media/pixel.h"
#include "media/rng.h"

namespace anno::media::kernels {
namespace {

// Sizes chosen to straddle every vector width in play (2, 4, 16, 32
// pixels per iteration) plus their overread guards.
constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                                  15, 16, 17, 31, 32,  33,  47,  48, 49,
                                  63, 64, 95, 97, 255, 256, 1000};

Image randomImage(std::size_t n, std::uint64_t seed) {
  // Histogram/EMD inputs live on frames; fake a 1-row frame of n pixels.
  Image img = n == 0 ? Image{} : Image(static_cast<int>(n), 1);
  SplitMix64 rng(seed);
  for (Rgb8& p : img.pixels()) {
    const std::uint64_t r = rng.next();
    p = Rgb8{static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(r >> 8),
             static_cast<std::uint8_t>(r >> 16)};
  }
  return img;
}

GrayImage randomGray(std::size_t n, std::uint64_t seed) {
  GrayImage img = n == 0 ? GrayImage{} : GrayImage(static_cast<int>(n), 1);
  SplitMix64 rng(seed);
  for (std::uint8_t& p : img.pixels()) {
    p = static_cast<std::uint8_t>(rng.next());
  }
  return img;
}

/// Straight-line per-pixel reference, written independently of the kernel
/// layer's shared helpers.
FrameProfile referenceProfile(std::span<const Rgb8> px) {
  FrameProfile out;
  int mn = 255;
  int mx = 0;
  for (const Rgb8& p : px) {
    const std::uint8_t y = luma8(p);
    ++out.hist[y];
    out.lumaSum += y;
    mn = std::min<int>(mn, y);
    mx = std::max<int>(mx, y);
  }
  out.minLuma = px.empty() ? 0 : static_cast<std::uint8_t>(mn);
  out.maxLuma = px.empty() ? 0 : static_cast<std::uint8_t>(mx);
  return out;
}

void expectProfileEq(const FrameProfile& got, const FrameProfile& want,
                     const char* what, Level level, std::size_t n) {
  SCOPED_TRACE(testing::Message() << what << " level=" << levelName(level)
                                  << " n=" << n);
  EXPECT_EQ(got.hist, want.hist);
  EXPECT_EQ(got.lumaSum, want.lumaSum);
  EXPECT_EQ(got.minLuma, want.minLuma);
  EXPECT_EQ(got.maxLuma, want.maxLuma);
}

TEST(Kernels, ScalarAlwaysAvailable) {
  EXPECT_TRUE(available(Level::kScalar));
  ASSERT_NE(tableFor(Level::kScalar), nullptr);
  EXPECT_EQ(tableFor(Level::kScalar)->level, Level::kScalar);
  EXPECT_FALSE(availableLevels().empty());
  EXPECT_EQ(availableLevels().front(), Level::kScalar);
}

TEST(Kernels, LevelNamesRoundTrip) {
  for (Level level : {Level::kScalar, Level::kAvx2}) {
    EXPECT_EQ(parseLevel(levelName(level)), level);
  }
  EXPECT_EQ(parseLevel("sse2"), std::nullopt);
  EXPECT_EQ(parseLevel("mmx"), std::nullopt);
  EXPECT_EQ(parseLevel(""), std::nullopt);
}

TEST(Kernels, ProfileRgbMatchesScalarOnAllShapes) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    ASSERT_NE(table, nullptr);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xA11CE + n);
      const FrameProfile want = referenceProfile(img.pixels());
      FrameProfile got;
      table->profileRgb(img.pixels().data(), n, got);
      expectProfileEq(got, want, "profileRgb", level, n);
    }
  }
}

TEST(Kernels, ProfileRgbSaturatedAndFlat) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : {1u, 31u, 64u, 333u}) {
      Image img(static_cast<int>(n), 1, Rgb8{255, 255, 255});
      FrameProfile got;
      table->profileRgb(img.pixels().data(), n, got);
      EXPECT_EQ(got.hist[255], n);
      EXPECT_EQ(got.lumaSum, 255u * n);
      EXPECT_EQ(got.minLuma, 255);
      EXPECT_EQ(got.maxLuma, 255);
    }
  }
}

TEST(Kernels, ProfileGrayMatchesScalarOnAllShapes) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const GrayImage img = randomGray(n, 0xBEEF + n);
      FrameProfile want;
      scalar->profileGray(img.pixels().data(), n, want);
      FrameProfile got;
      table->profileGray(img.pixels().data(), n, got);
      expectProfileEq(got, want, "profileGray", level, n);
    }
  }
}

TEST(Kernels, MaxChannelHistogramMatchesScalar) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xC0FFEE + n);
      std::uint64_t want[256] = {};
      std::uint64_t got[256] = {};
      scalar->maxChannelHistogram(img.pixels().data(), n, want);
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v]) << levelName(level) << " n=" << n
                                   << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramMatchesIndependentReference) {
  // MatchesScalar above compares dispatch variants against each other,
  // which is vacuous while every level delegates to one shared helper --
  // if that helper miscounted, all levels would agree on the wrong answer.
  // This case pins every level against an independent per-pixel
  // max(r,g,b) walk, so a future vectorized variant (and the current
  // scalar one) is checked against ground truth, not against itself.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x3A9C + n);
      std::uint64_t want[256] = {};
      for (const Rgb8& p : img.pixels()) {
        ++want[std::max({p.r, p.g, p.b})];
      }
      std::uint64_t got[256] = {};
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " n=" << n << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramAccumulatesIntoExistingBins) {
  // The kernel contract is ACCUMULATE, not assign: Histogram::ofMaxChannel
  // hands over a zeroed array, but callers may merge several pixel ranges
  // into one histogram.  A vectorized variant that folds its banked
  // counters with an assignment would pass every zero-start case above and
  // still be wrong here.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : {5u, 16u, 33u, 250u}) {
      const Image img = randomImage(n, 0xADD + n);
      std::uint64_t want[256];
      std::uint64_t got[256];
      for (int v = 0; v < 256; ++v) {
        want[v] = got[v] = 7u * static_cast<unsigned>(v) + 1;
      }
      for (const Rgb8& p : img.pixels()) {
        ++want[std::max({p.r, p.g, p.b})];
      }
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " n=" << n << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, MaxChannelHistogramChannelDominancePatterns) {
  // Crafted frames where one known channel holds the maximum at every
  // pixel: catches a deinterleave that samples the wrong byte lane, which
  // random content can mask when maxima land on mixed channels.
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (int dom = 0; dom < 3; ++dom) {
      const std::size_t n = 129;  // ragged for every vector width in play
      Image img(static_cast<int>(n), 1);
      std::uint64_t want[256] = {};
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t hi = static_cast<std::uint8_t>(100 + i % 156);
        const std::uint8_t lo = static_cast<std::uint8_t>(i % 100);
        Rgb8 p{lo, lo, lo};
        (dom == 0 ? p.r : dom == 1 ? p.g : p.b) = hi;
        img.pixels()[i] = p;
        ++want[hi];
      }
      std::uint64_t got[256] = {};
      table->maxChannelHistogram(img.pixels().data(), n, got);
      for (int v = 0; v < 256; ++v) {
        ASSERT_EQ(got[v], want[v])
            << levelName(level) << " dom=" << dom << " bin=" << v;
      }
    }
  }
}

TEST(Kernels, LumaPlaneMatchesPerPixelLuma8) {
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x7E57 + n);
      std::vector<std::uint8_t> got(n + 1, 0xEE);  // +1 canary
      table->lumaPlane(img.pixels().data(), n, got.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], luma8(img.pixels()[i]))
            << levelName(level) << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(got[n], 0xEE) << levelName(level) << " wrote past the end";
    }
  }
}

TEST(Kernels, HistAccumulateMatchesScalar) {
  SplitMix64 rng(0xACC);
  std::uint64_t src[256];
  for (std::uint64_t& c : src) c = rng.next() >> 30;
  for (Level level : availableLevels()) {
    std::uint64_t want[256];
    std::uint64_t got[256];
    for (int v = 0; v < 256; ++v) want[v] = got[v] = rng.next() >> 40;
    tableFor(Level::kScalar)->histAccumulate(want, src);
    tableFor(level)->histAccumulate(got, src);
    for (int v = 0; v < 256; ++v) {
      ASSERT_EQ(got[v], want[v]) << levelName(level) << " bin=" << v;
    }
  }
}

TEST(Kernels, CompensationTablesMatchPerPixelScaleAndOffset) {
  // Compensation is a 256-entry lookup, not a kernel: the table entry must
  // be media::scale's own expression at every code, including the gains
  // whose product lands on, or one ulp beside, a half code, where clamp8's
  // rounding decides (0.5 - ulp rounds up in clamp8's v + 0.5).
  std::vector<double> gains = {0.0, 0.999, 1.0, 1.37, 2.0, 255.0};
  for (int v : {1, 2, 3, 7, 51, 101, 200, 254, 255}) {
    for (int n : {0, 1, 100, 127, 200, 254}) {
      const double tie = (n + 0.5) / v;
      gains.insert(gains.end(), {std::nextafter(tie, 0.0), tie,
                                 std::nextafter(tie, 1e9)});
    }
  }
  for (double k : gains) {
    const compensate::ChannelTable table = compensate::gainTable(k);
    for (int v = 0; v < 256; ++v) {
      const auto c = static_cast<std::uint8_t>(v);
      ASSERT_EQ(table[static_cast<std::size_t>(v)], clamp8(v * k))
          << "k=" << k << " v=" << v;
      ASSERT_EQ(table[static_cast<std::size_t>(v)], scale(Rgb8{c, c, c}, k).r)
          << "k=" << k << " v=" << v;
    }
  }
  // Applied to frames: every pixel equals the per-pixel primitive.
  const double deltas[] = {0.0, 0.5, 1.37, 37.5, 100.25, 300.0};
  for (std::size_t n : kSizes) {
    const Image img = randomImage(n, 0x5CA1E + n);
    if (n == 0) {
      EXPECT_THROW((void)compensate::contrastEnhance(img, 1.5),
                   std::invalid_argument);
      EXPECT_THROW((void)compensate::brightnessCompensate(img, 1.5),
                   std::invalid_argument);
      continue;
    }
    for (double k : gains) {
      if (k < 1.0) continue;  // contrastEnhance only brightens
      const Image got = compensate::contrastEnhance(img, k);
      ASSERT_EQ(got.pixelCount(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.pixels()[i], scale(img.pixels()[i], k))
            << "n=" << n << " k=" << k << " i=" << i;
      }
    }
    for (double delta : deltas) {
      const Image got = compensate::brightnessCompensate(img, delta);
      ASSERT_EQ(got.pixelCount(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got.pixels()[i], offset(img.pixels()[i], delta))
            << "n=" << n << " delta=" << delta << " i=" << i;
      }
    }
  }
}

TEST(Kernels, ClipThresholdMatchesPredicateEverywhere) {
  // The threshold IS the predicate: for every k, code c clips iff
  // c >= clipThreshold(k).
  const double ks[] = {0.0, 0.5, 1.0, 255.0 / 254.0, 1.5,
                       2.0, 17.0, 255.0, 256.0, 1e12};
  for (double k : ks) {
    const int t = clipThreshold(k);
    for (int c = 0; c <= 255; ++c) {
      EXPECT_EQ(static_cast<double>(c) * k > 255.0, c >= t)
          << "k=" << k << " c=" << c;
    }
  }
}

TEST(Kernels, TailScansMatchScalar) {
  // The definitions in kernels.h, brute force: every range sum recomputed
  // from scratch.
  const auto sum = [](const std::uint64_t* counts, int lo, int hi) {
    std::uint64_t s = 0;
    for (int v = lo; v <= hi; ++v) s += counts[v];
    return s;
  };
  SplitMix64 rng(0x7A11);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint64_t counts[256] = {};
    for (std::uint64_t& c : counts) {
      c = trial == 0 ? 0 : rng.next() >> (40 + (trial % 3) * 8);
    }
    const std::uint64_t total = sum(counts, 0, 255);
    // Exact partial sums put the budget on a scan's boundary.
    const std::uint64_t budgets[] = {0,         1,
                                     total / 100, total / 10,
                                     total / 2, total,
                                     total + 1, sum(counts, 0, 99),
                                     sum(counts, 200, 255)};
    for (std::uint64_t b : budgets) {
      SCOPED_TRACE(testing::Message() << "trial=" << trial << " budget=" << b);
      int tail = 0;
      for (int v = 1; v <= 255; ++v) {
        if (sum(counts, v, 255) > b) tail = v;  // the largest such v
      }
      int low = 255;
      for (int v = 255; v >= 0; --v) {
        if (sum(counts, 0, v) > b) low = v;  // the smallest such v
      }
      int high = 0;
      for (int v = 0; v <= 255; ++v) {
        if (sum(counts, v, 255) > b) high = v;  // the largest such v
      }
      EXPECT_EQ(tailBudgetLevel(counts, b), tail);
      EXPECT_EQ(lowPoint(counts, b), low);
      EXPECT_EQ(highPoint(counts, b), high);
    }
  }
}

TEST(Kernels, EmdNumeratorMatchesScalarAndIsSymmetric) {
  SplitMix64 rng(0xE3D);
  for (int trial = 0; trial < 12; ++trial) {
    std::uint64_t a[256] = {};
    std::uint64_t b[256] = {};
    std::uint64_t ta = 0;
    std::uint64_t tb = 0;
    for (int v = 0; v < 256; ++v) {
      a[v] = rng.next() >> (44 - (trial % 4) * 4);
      b[v] = rng.next() >> (44 - (trial % 4) * 4);
      ta += a[v];
      tb += b[v];
    }
    if (trial % 3 == 0 && tb <= ta) {
      // Exercise the equal-totals factoring (the scene detector's case).
      b[255] += ta - tb;
      tb = ta;
    }
    const Uint128 want =
        tableFor(Level::kScalar)->emdNumerator(a, ta, b, tb);
    for (Level level : availableLevels()) {
      const Uint128 got = tableFor(level)->emdNumerator(a, ta, b, tb);
      EXPECT_TRUE(got == want) << levelName(level) << " trial=" << trial;
      const Uint128 sym = tableFor(level)->emdNumerator(b, tb, a, ta);
      EXPECT_TRUE(sym == want) << levelName(level) << " asymmetric";
    }
  }
}

TEST(Kernels, EmdNumeratorWideOperandsUseExactPath) {
  // Totals far above the 2^27 fast-path bound: every variant must fall
  // back to the 128-bit reference and still agree exactly.
  std::uint64_t a[256] = {};
  std::uint64_t b[256] = {};
  a[0] = 1ull << 40;
  a[255] = 1ull << 40;
  b[128] = (1ull << 41) + 12345;
  const std::uint64_t ta = a[0] + a[255];
  const std::uint64_t tb = b[128];
  const Uint128 want = tableFor(Level::kScalar)->emdNumerator(a, ta, b, tb);
  EXPECT_TRUE(want > 0);
  for (Level level : availableLevels()) {
    EXPECT_TRUE(tableFor(level)->emdNumerator(a, ta, b, tb) == want)
        << levelName(level);
  }
}

TEST(Kernels, EarthMoversBitIdenticalAcrossLevels) {
  // Public-API check: the one value the scene detector thresholds on.
  const Image x = randomImage(997, 1);
  const Image y = randomImage(997, 2);
  const Histogram hx = Histogram::ofImage(x);
  const Histogram hy = Histogram::ofImage(y);
  const double want = [&] {
    ScopedLevel guard(Level::kScalar);
    return Histogram::earthMovers(hx, hy);
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    const double got = Histogram::earthMovers(hx, hy);
    EXPECT_EQ(got, want) << levelName(level);  // bitwise, not NEAR
    EXPECT_EQ(Histogram::earthMovers(hy, hx), want) << levelName(level);
  }
}

TEST(Kernels, ScopedLevelSwapsAndRestores) {
  const Level before = activeLevel();
  {
    ScopedLevel guard(Level::kScalar);
    EXPECT_EQ(activeLevel(), Level::kScalar);
    const Image img = randomImage(123, 3);
    // Public API flows through the override.
    const Histogram h = Histogram::ofImage(img);
    EXPECT_EQ(h.total(), 123u);
  }
  EXPECT_EQ(activeLevel(), before);
}

TEST(Kernels, PublicApiIdenticalUnderEveryLevel) {
  // End-to-end equality through the real entry points, per level: the
  // values engine + planner consume must not depend on dispatch.
  const Image img = randomImage(1001, 4);
  struct Snapshot {
    Histogram hist;
    Histogram maxHist;
    FrameLuminance lum;
    GrayImage plane;
    double clipped;
  };
  auto snapshot = [&img] {
    return Snapshot{Histogram::ofImage(img), Histogram::ofMaxChannel(img),
                    analyzeLuminance(img), lumaPlane(img),
                    compensate::clippedFraction(Histogram::ofMaxChannel(img),
                                                1.9)};
  };
  const Snapshot want = [&] {
    ScopedLevel guard(Level::kScalar);
    return snapshot();
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    const Snapshot got = snapshot();
    EXPECT_EQ(got.hist, want.hist) << levelName(level);
    EXPECT_EQ(got.maxHist, want.maxHist) << levelName(level);
    EXPECT_EQ(got.lum, want.lum) << levelName(level);
    EXPECT_TRUE(std::ranges::equal(got.plane.pixels(), want.plane.pixels()))
        << levelName(level);
    EXPECT_EQ(got.clipped, want.clipped) << levelName(level);
  }
}

TEST(Kernels, ClippedFractionHistogramPathIsExact) {
  // The O(256) max-channel-histogram count equals the per-pixel
  // clipsWhenScaled count EXACTLY (same double), for any gain, at every
  // level (the histogram is a dispatched kernel).
  const double ks[] = {0.0, 1.0,  1.00001, 1.0001, 1.3, 1.5,
                       2.0, 4.0, 5.5,     128.0,  1e6, 1e9};
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xC11B + n);
      const Histogram maxHist = Histogram::ofMaxChannel(img);
      EXPECT_EQ(maxHist.total(), n);
      for (double k : ks) {
        std::size_t clipped = 0;
        for (const Rgb8& p : img.pixels()) {
          if (clipsWhenScaled(p, k)) ++clipped;
        }
        const double want = n == 0 ? 0.0
                                   : static_cast<double>(clipped) /
                                         static_cast<double>(n);
        ASSERT_EQ(compensate::clippedFraction(maxHist, k), want)
            << levelName(level) << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Kernels, AnalyzeLuminanceIntegerSumMatchesReference) {
  // Satellite: meanLuma is now sum(luma8)/n with one final divide; check
  // against an independently computed exact mean.
  for (std::size_t n : {1u, 7u, 64u, 999u}) {
    const Image img = randomImage(n, 0x5EED + n);
    std::uint64_t sum = 0;
    for (const Rgb8& p : img.pixels()) sum += luma8(p);
    const FrameLuminance fl = analyzeLuminance(img);
    EXPECT_EQ(fl.meanLuma,
              static_cast<double>(sum) / static_cast<double>(n));
    EXPECT_EQ(fl.pixelCount, n);
  }
  EXPECT_EQ(analyzeLuminance(Image{}).pixelCount, 0u);
}

// ---- Codec kernels: DCT/IDCT, quantisation, colour conversion ----------
//
// The codec kernels are integer, so "matches scalar" is plain equality.

using Samples = std::array<std::int16_t, 64>;
using Coefs = std::array<std::int32_t, 64>;

constexpr std::int16_t kFullScale = 255 << kPlaneFracBits;  // 8-bit 255

/// Sample blocks that take every transform path the codec feeds it:
/// random planes and residuals, the input-range extremes, all-zero,
/// all-255, DC-only and the full-swing checkerboards (+-255 residual and
/// 0/255 intra).
std::vector<Samples> sampleInputs() {
  std::vector<Samples> blocks;
  SplitMix64 rng(0xDC7);
  for (int i = 0; i < 200; ++i) {
    Samples b;
    for (auto& v : b) v = static_cast<std::int16_t>(rng.below(kFullScale + 1));
    blocks.push_back(b);
  }
  for (int i = 0; i < 200; ++i) {
    Samples b;
    for (auto& v : b) {
      const std::uint64_t r = rng.below(8);
      v = static_cast<std::int16_t>(
          r == 0   ? kMaxFdctInput
          : r == 1 ? -kMaxFdctInput
                   : static_cast<int>(rng.below(2 * kMaxFdctInput + 1)) -
                         kMaxFdctInput);
    }
    blocks.push_back(b);
  }
  Samples b{};
  blocks.push_back(b);  // all 0
  b.fill(kFullScale);
  blocks.push_back(b);  // all 255
  b.fill(static_cast<std::int16_t>(-kFullScale));
  blocks.push_back(b);
  for (const int lo : {-kFullScale, 0}) {
    for (int i = 0; i < 64; ++i) {
      b[i] = static_cast<std::int16_t>((i / 8 + i % 8) % 2 == 0 ? kFullScale
                                                                : lo);
    }
    blocks.push_back(b);  // +-255 residual and 0/255 intra checkerboards
  }
  return blocks;
}

/// Coefficient blocks for the inverse: random in range, the range
/// extremes (saturating outputs), DC-only and the forward transforms of
/// the sample inputs at integer precision.
std::vector<Coefs> coefInputs() {
  std::vector<Coefs> blocks;
  SplitMix64 rng(0x1DC7);
  for (int i = 0; i < 200; ++i) {
    Coefs c;
    for (auto& v : c) {
      const std::uint64_t r = rng.below(6);
      v = r == 0   ? kMaxIdctInput
          : r == 1 ? -kMaxIdctInput
          : r == 2 ? 0
                   : static_cast<int>(rng.below(2 * kMaxIdctInput + 1)) -
                         kMaxIdctInput;
    }
    blocks.push_back(c);
  }
  Coefs c{};
  blocks.push_back(c);
  c.fill(kMaxIdctInput);
  blocks.push_back(c);
  c.fill(-kMaxIdctInput);
  blocks.push_back(c);
  for (const Samples& s : sampleInputs()) {
    tableFor(Level::kScalar)->fdct8x8(s.data(), c.data());
    for (auto& v : c) {
      v = std::clamp((v + (1 << (kCoefFracBits - 1))) >> kCoefFracBits,
                     -kMaxIdctInput, kMaxIdctInput);
    }
    blocks.push_back(c);
  }
  return blocks;
}

TEST(Kernels, DctMatchesScalarBitwise) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  const std::vector<Samples> samples = sampleInputs();
  const std::vector<Coefs> coefs = coefInputs();
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      Coefs want;
      Coefs got;
      scalar->fdct8x8(samples[i].data(), want.data());
      table->fdct8x8(samples[i].data(), got.data());
      ASSERT_EQ(got, want) << levelName(level) << " fdct block " << i;
    }
    for (std::size_t i = 0; i < coefs.size(); ++i) {
      Samples want;
      Samples got;
      scalar->idct8x8(coefs[i].data(), want.data());
      table->idct8x8(coefs[i].data(), got.data());
      ASSERT_EQ(got, want) << levelName(level) << " idct block " << i;
    }
  }
}

TEST(Kernels, DctWrappersFollowTheActiveTable) {
  const Samples in = sampleInputs().front();
  const auto roundTrip = [&] {
    CoefBlock freq = forwardDct(in);
    for (auto& v : freq) v >>= kCoefFracBits;
    return inverseDct(freq);
  };
  const Samples want = [&] {
    ScopedLevel guard(Level::kScalar);
    return roundTrip();
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    EXPECT_EQ(roundTrip(), want) << levelName(level);
  }
}

TEST(Kernels, IdctOfDcOnlyBlockIsAConstantFillAtEveryLevel) {
  // The decoder fills DC-only blocks without the inverse transform; that
  // is only sound because the transform returns exactly this constant.
  const int dcSample = 1 << (kPlaneFracBits - 3);
  for (Level level : availableLevels()) {
    for (int dc = -kMaxIdctInput; dc <= kMaxIdctInput; dc += 7) {
      Coefs c{};
      c[0] = dc;
      Samples got;
      tableFor(level)->idct8x8(c.data(), got.data());
      for (const std::int16_t v : got) {
        ASSERT_EQ(v, std::clamp(dc * dcSample, -32768, 32767))
            << levelName(level) << " dc=" << dc;
      }
    }
  }
}

/// Sign of DCT basis function k at sample x: cos((2x + 1) k pi / 16) is
/// never zero for k < 8.
int basisSign(int k, int x) {
  return std::cos((2 * x + 1) * k * std::acos(-1.0) / 16) > 0 ? 1 : -1;
}

TEST(Kernels, DctAtBasisSignedExtremesMatchesScalar) {
  // Blocks at the input bound whose signs follow basis pair (j, k), the
  // inputs that drive output (j, k) and its pass sums to their largest
  // magnitude: the int16 lane bounds of kernels_internal.h are reached,
  // and every level must still match the reference.
  const KernelTable* scalar = tableFor(Level::kScalar);
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (int j = 0; j < 8; ++j) {
      for (int k = 0; k < 8; ++k) {
        for (const int sign : {1, -1}) {
          Samples s;
          Coefs c;
          for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
              const int v = sign * basisSign(j, y) * basisSign(k, x);
              s[y * 8 + x] = static_cast<std::int16_t>(v * kMaxFdctInput);
              c[y * 8 + x] = v * kMaxIdctInput;
            }
          }
          Coefs wantF;
          Coefs gotF;
          scalar->fdct8x8(s.data(), wantF.data());
          table->fdct8x8(s.data(), gotF.data());
          ASSERT_EQ(gotF, wantF) << levelName(level) << " fdct basis (" << j
                                 << "," << k << ") sign " << sign;
          Samples wantS;
          Samples gotS;
          scalar->idct8x8(c.data(), wantS.data());
          table->idct8x8(c.data(), gotS.data());
          ASSERT_EQ(gotS, wantS) << levelName(level) << " idct basis (" << j
                                 << "," << k << ") sign " << sign;
        }
      }
    }
  }
}

TEST(Kernels, SkipRuleHoldsAtTheWidestPlaneDifferences) {
  // The encoder's SKIP test sums block columns in uint16 lanes, sound
  // because source samples lie in [0, 8176] and reference samples in
  // [0, 8160].  At those extremes (cur 8176 over ref 0, and cur 16 under
  // ref 8160), on a full block and the right (4x8), bottom (8x6) and
  // corner (4x6) partial blocks of a 44x30 plane, it must agree with the
  // rule summed in int64: 2 * SAD < 3 * 32n.  The SADs tried straddle the
  // rule's boundary and every multiple of 2^15 and 2^16 a block reaches,
  // filled column by column and row by row.
  constexpr int kW = 44;
  constexpr int kH = 30;
  struct Extreme {
    std::int16_t cur;
    std::int16_t ref;
  };
  const Extreme extremes[] = {{8176, 0}, {16, 8160}};
  int checked = 0;
  int skips = 0;
  for (const auto& [bx, by] : {std::pair{1, 1}, std::pair{5, 1},
                               std::pair{2, 3}, std::pair{5, 3}}) {
    const int rows = std::min(8, kH - 8 * by);
    const int cols = std::min(8, kW - 8 * bx);
    const int n = rows * cols;
    for (const Extreme e : extremes) {
      const int wide = std::abs(e.cur - e.ref);
      std::vector<std::int64_t> sads = {0, 48 * n - 1, 48 * n,
                                        static_cast<std::int64_t>(wide) * n};
      for (std::int64_t m = 32768; m <= std::int64_t{wide} * n; m += 32768) {
        for (const std::int64_t d : {-1, 0, 1, 48 * n - 1}) {
          sads.push_back(m + d);
        }
      }
      sads.push_back(std::int64_t{wide} * rows);  // one whole column
      for (const std::int64_t target : sads) {
        if (target < 0 || target > std::int64_t{wide} * n) continue;
        for (const bool byColumn : {true, false}) {
          // Both planes start equal at the reference extreme; samples then
          // move to the current extreme (or part way) until the SAD is the
          // target.
          std::vector<std::int16_t> cur(kW * kH, e.ref);
          std::vector<std::int16_t> ref(kW * kH, e.ref);
          std::int64_t left = target;
          for (int i = 0; i < n && left > 0; ++i) {
            const int x = byColumn ? i / rows : i % cols;
            const int y = byColumn ? i % rows : i / cols;
            const int step =
                static_cast<int>(std::min<std::int64_t>(left, wide));
            cur[(8 * by + y) * kW + 8 * bx + x] = static_cast<std::int16_t>(
                e.cur > e.ref ? e.ref + step : e.ref - step);
            left -= step;
          }
          std::int64_t sad = 0;
          for (int y = 0; y < rows; ++y) {
            for (int x = 0; x < cols; ++x) {
              const std::size_t at = (8 * by + y) * kW + 8 * bx + x;
              sad += std::abs(std::int32_t{cur[at]} - ref[at]);
            }
          }
          ASSERT_EQ(sad, target);
          const bool want = 2 * sad < (3 * n) << kPlaneFracBits;
          EXPECT_EQ(media::detail::isSkipBlock(cur.data(), ref.data(), kW, kH,
                                               bx, by),
                    want)
              << "block (" << bx << "," << by << "), cur " << e.cur
              << " ref " << e.ref << ", SAD " << sad
              << (byColumn ? " by column" : " by row");
          ++checked;
          skips += want ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(checked, 200);
  EXPECT_GT(skips, 8);
}

/// Round-half-away-from-zero of c / (d << kCoefFracBits) by plain integer
/// division, written independently of the reciprocal.
std::int32_t divideRoundHalfAway(std::int32_t c, std::int32_t d) {
  const std::int64_t step = std::int64_t{d} << kCoefFracBits;
  const std::int64_t mag = (std::llabs(c) + step / 2) / step;
  return static_cast<std::int32_t>(c < 0 ? -mag : mag);
}

void expectQuantizeEq(const std::int32_t* freq, const QuantTable& table,
                      Level level, const char* what) {
  std::int32_t want[64];
  std::int32_t got[64];
  const std::uint64_t wantMask =
      tableFor(Level::kScalar)->quantizeBlock(freq, table, want);
  const std::uint64_t gotMask =
      tableFor(level)->quantizeBlock(freq, table, got);
  ASSERT_EQ(gotMask, wantMask) << what << " " << levelName(level);
  for (int i = 0; i < 64; ++i) {
    const int z = zigzagOrder()[i];
    ASSERT_EQ(got[i], want[i])
        << what << " level=" << levelName(level) << " zigzag " << i
        << " freq=" << freq[z] << " divisor=" << table.divisor[z];
    ASSERT_EQ(want[i], divideRoundHalfAway(freq[z], table.divisor[z]))
        << what << " scalar reference, zigzag " << i;
    ASSERT_EQ((wantMask >> i) & 1, want[i] != 0 ? 1u : 0u) << what;
  }
}

TEST(Kernels, QuantizeMatchesScalarOnRandomBlocks) {
  SplitMix64 rng(0x0A7);
  for (Level level : availableLevels()) {
    for (const Samples& spatial : sampleInputs()) {
      Coefs freq;
      tableFor(Level::kScalar)->fdct8x8(spatial.data(), freq.data());
      int divisors[64];
      for (int& d : divisors) d = 1 + static_cast<int>(rng.below(255));
      expectQuantizeEq(freq.data(), makeQuantTable(divisors), level,
                       "dct block");
    }
  }
}

TEST(Kernels, QuantizeRoundsExactHalvesAwayFromZero) {
  // Quotients exactly on k + 0.5 and -(k + 0.5), and one LSB either side:
  // where round-half-even or a biased reciprocal would disagree.
  for (Level level : availableLevels()) {
    for (const int d : {1, 2, 3, 10, 127, 254, 255}) {
      int divisors[64];
      std::fill(std::begin(divisors), std::end(divisors), d);
      const QuantTable table = makeQuantTable(divisors);
      const std::int32_t step = d << kCoefFracBits;
      for (int k = -3; k <= 3; ++k) {
        for (const int nudge : {-1, 0, 1}) {
          Coefs freq;
          for (int j = 0; j < 64; ++j) {
            const std::int64_t half = std::int64_t{2 * (k + j - 32) + 1} *
                                          step / 2 +
                                      nudge;
            freq[j] = static_cast<std::int32_t>(std::clamp<std::int64_t>(
                half, -kMaxQuantInput, kMaxQuantInput));
          }
          expectQuantizeEq(freq.data(), table, level, "halves");
        }
      }
    }
  }
}

TEST(Kernels, QuantizeIsExactForEveryDivisorOverTheFullRange) {
  // Exhaustive: every divisor 1..255 against every coefficient in
  // [-kMaxQuantInput, kMaxQuantInput], 64 consecutive values per call.
  // The reference quotient of each magnitude is counted up step by step
  // (one more every `step` magnitudes) and spot-checked against division.
  std::vector<const KernelTable*> tables;
  for (Level level : availableLevels()) tables.push_back(tableFor(level));
  std::vector<std::int32_t> byMagnitude(kMaxQuantInput + 1);
  for (int d = 1; d <= 255; ++d) {
    const std::int32_t step = d << kCoefFracBits;
    std::int32_t quotient = 0;
    std::int32_t remainder = step / 2;
    for (std::int32_t m = 0; m <= kMaxQuantInput; ++m) {
      byMagnitude[m] = quotient;
      if (++remainder == step) {
        remainder = 0;
        ++quotient;
      }
    }
    for (std::int32_t m = 0; m <= kMaxQuantInput; m += 4093) {
      ASSERT_EQ(byMagnitude[m], divideRoundHalfAway(m, d));
    }
    int divisors[64];
    std::fill(std::begin(divisors), std::end(divisors), d);
    const QuantTable qt = makeQuantTable(divisors);
    const auto& zz = zigzagOrder();
    Coefs freq;
    std::int32_t want[64];
    std::int32_t got[64];
    for (std::int32_t base = -kMaxQuantInput; base <= kMaxQuantInput;
         base += 64) {
      for (int j = 0; j < 64; ++j) {
        freq[j] = std::min(base + j, kMaxQuantInput);
      }
      for (int i = 0; i < 64; ++i) {
        const std::int32_t c = freq[zz[i]];
        want[i] = c < 0 ? -byMagnitude[-c] : byMagnitude[c];
      }
      for (const KernelTable* table : tables) {
        table->quantizeBlock(freq.data(), qt, got);
        if (!std::equal(got, got + 64, want)) {
          FAIL() << levelName(table->level) << " divisor " << d
                 << " block at coefficient " << base;
        }
      }
    }
  }
}

TEST(Kernels, QuantTableRejectsDivisorsOutsideOneTo255) {
  int divisors[64];
  std::fill(std::begin(divisors), std::end(divisors), 1);
  EXPECT_NO_THROW((void)makeQuantTable(divisors));
  divisors[17] = 0;
  EXPECT_THROW((void)makeQuantTable(divisors), std::invalid_argument);
  divisors[17] = 256;
  EXPECT_THROW((void)makeQuantTable(divisors), std::invalid_argument);
}

/// Random RGB with the channel extremes over-represented.
std::vector<Rgb8> colourPixels(std::size_t n, std::uint64_t seed) {
  std::vector<Rgb8> px(n);
  SplitMix64 rng(seed);
  for (Rgb8& p : px) {
    const std::uint64_t r = rng.next();
    auto channel = [](std::uint64_t bits) {
      const std::uint8_t v = static_cast<std::uint8_t>(bits);
      return (bits >> 8) % 5 == 0 ? std::uint8_t{255}
             : (bits >> 8) % 5 == 1 ? std::uint8_t{0}
                                    : v;
    };
    p = Rgb8{channel(r), channel(r >> 16), channel(r >> 32)};
  }
  return px;
}

TEST(Kernels, RgbToYcbcrMatchesScalarOnRaggedSizes) {
  constexpr std::int16_t kCanary = 12345;
  constexpr std::size_t kPad = 5;
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n = 0; n <= 1000; ++n) {
      const std::vector<Rgb8> px = colourPixels(n, 0xC010 + n);
      std::vector<std::int16_t> want[3];
      std::vector<std::int16_t> got[3];
      for (int c = 0; c < 3; ++c) {
        want[c].assign(n + kPad, kCanary);
        got[c].assign(n + kPad, kCanary);
      }
      tableFor(Level::kScalar)
          ->rgbToYcbcrPlanes(px.data(), n, want[0].data(), want[1].data(),
                             want[2].data());
      table->rgbToYcbcrPlanes(px.data(), n, got[0].data(), got[1].data(),
                              got[2].data());
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(got[c], want[c])
            << levelName(level) << " n=" << n << " plane " << c
            << " (or wrote past the end)";
      }
    }
  }
}

TEST(Kernels, RgbToYcbcrIsWithinAQuantumOfTheRealConversion) {
  // 2^15-scaled weights and one rounding: within half a plane unit plus
  // 3 * 255 * 2^-16 weight rounding of the real BT.601 conversion.
  const double unit = 1 << kPlaneFracBits;
  const double tol = 0.5 + 3 * 255 * unit / 65536.0;
  const std::vector<Rgb8> px = colourPixels(5000, 0xBEEF);
  std::vector<std::int16_t> y(px.size());
  std::vector<std::int16_t> cb(px.size());
  std::vector<std::int16_t> cr(px.size());
  tableFor(Level::kScalar)
      ->rgbToYcbcrPlanes(px.data(), px.size(), y.data(), cb.data(),
                         cr.data());
  for (std::size_t i = 0; i < px.size(); ++i) {
    const double r = px[i].r;
    const double g = px[i].g;
    const double b = px[i].b;
    EXPECT_NEAR(y[i], unit * (0.299 * r + 0.587 * g + 0.114 * b), tol);
    EXPECT_NEAR(cb[i],
                unit * (128 - 0.168736 * r - 0.331264 * g + 0.5 * b), tol);
    EXPECT_NEAR(cr[i],
                unit * (128 + 0.5 * r - 0.418688 * g - 0.081312 * b), tol);
  }
}

TEST(Kernels, YcbcrToRgbMatchesScalarOnRaggedSizes) {
  const Rgb8 canary{0xA5, 0x5A, 0xC3};
  constexpr std::size_t kPad = 5;
  // Decoded planes overshoot [0, 255] and saturated ones hit the int16
  // limits; none of it may overflow the weighted sums.
  const std::int16_t specials[] = {0,     -1,    kFullScale, -32768, 32767,
                                   4096,  4095,  4097,       -4096,  8160,
                                   8191,  -8192};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n = 0; n <= 1000; ++n) {
      SplitMix64 rng(0xB00 + n);
      std::vector<std::int16_t> y(n);
      std::vector<std::int16_t> cb(n);
      std::vector<std::int16_t> cr(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto pick = [&] {
          return i % 3 == 0
                     ? specials[rng.below(std::size(specials))]
                     : static_cast<std::int16_t>(rng.next());
        };
        y[i] = pick();
        cb[i] = pick();
        cr[i] = pick();
      }
      std::vector<Rgb8> want(n + kPad, canary);
      std::vector<Rgb8> got(n + kPad, canary);
      tableFor(Level::kScalar)
          ->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), n, want.data());
      table->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), n, got.data());
      ASSERT_EQ(got, want) << levelName(level) << " n=" << n
                           << " (or wrote past the end)";
    }
  }
}

TEST(Kernels, ColourRoundTripOfGreyIsExactAtEveryLevel) {
  // Grey maps to exactly (32v, 4096, 4096) and back.
  std::vector<Rgb8> px;
  for (int v = 0; v < 256; ++v) {
    const auto c = static_cast<std::uint8_t>(v);
    px.push_back(Rgb8{c, c, c});
  }
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    std::vector<std::int16_t> y(px.size());
    std::vector<std::int16_t> cb(px.size());
    std::vector<std::int16_t> cr(px.size());
    table->rgbToYcbcrPlanes(px.data(), px.size(), y.data(), cb.data(),
                            cr.data());
    for (std::size_t v = 0; v < px.size(); ++v) {
      EXPECT_EQ(y[v], static_cast<std::int16_t>(v << kPlaneFracBits));
      EXPECT_EQ(cb[v], 128 << kPlaneFracBits);
      EXPECT_EQ(cr[v], 128 << kPlaneFracBits);
    }
    std::vector<Rgb8> back(px.size());
    table->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), px.size(),
                            back.data());
    EXPECT_EQ(back, px) << levelName(level);
  }
}

TEST(Kernels, ColourRoundTripIsExactForEveryColour) {
  // The P-frame reference goes RGB -> planes once per frame; skipped
  // blocks may only stay put if that round trip is the identity.
  std::vector<Rgb8> px(std::size_t{1} << 24);
  for (std::size_t i = 0; i < px.size(); ++i) {
    px[i] = Rgb8{static_cast<std::uint8_t>(i),
                 static_cast<std::uint8_t>(i >> 8),
                 static_cast<std::uint8_t>(i >> 16)};
  }
  std::vector<std::int16_t> y(px.size());
  std::vector<std::int16_t> cb(px.size());
  std::vector<std::int16_t> cr(px.size());
  std::vector<Rgb8> back(px.size());
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    table->rgbToYcbcrPlanes(px.data(), px.size(), y.data(), cb.data(),
                            cr.data());
    table->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), px.size(),
                            back.data());
    EXPECT_TRUE(back == px) << levelName(level);
  }
}

}  // namespace
}  // namespace anno::media::kernels
