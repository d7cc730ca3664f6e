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
#include <cstring>
#include <vector>

#include "compensate/compensate.h"
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
  for (Level level : {Level::kScalar, Level::kSse2, Level::kAvx2,
                      Level::kNeon}) {
    EXPECT_EQ(parseLevel(levelName(level)), level);
  }
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

TEST(Kernels, ScalePixelsMatchesPerPixelScale) {
  const double ks[] = {1.0, 1.2, 1.7320508075688772, 2.5, 8.0, 300.0};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0x5CA1E + n);
      for (double k : ks) {
        std::vector<Rgb8> got(n + 1, Rgb8{9, 9, 9});  // +1 canary
        table->scalePixels(img.pixels().data(), n, k, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          const Rgb8 want = scale(img.pixels()[i], k);
          ASSERT_EQ(got[i].r, want.r) << levelName(level) << " k=" << k;
          ASSERT_EQ(got[i].g, want.g) << levelName(level) << " k=" << k;
          ASSERT_EQ(got[i].b, want.b) << levelName(level) << " k=" << k;
        }
        EXPECT_EQ(got[n].r, 9) << levelName(level) << " wrote past the end";
      }
    }
  }
}

TEST(Kernels, CountClippedMatchesPerPixelPredicate) {
  const double ks[] = {0.0, 1.0, 1.00001, 1.5, 2.0, 4.0, 128.0, 1e9};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n : kSizes) {
      const Image img = randomImage(n, 0xC11B + n);
      for (double k : ks) {
        std::size_t want = 0;
        for (const Rgb8& p : img.pixels()) {
          if (clipsWhenScaled(p, k)) ++want;
        }
        ASSERT_EQ(table->countClipped(img.pixels().data(), n, k), want)
            << levelName(level) << " n=" << n << " k=" << k;
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
  SplitMix64 rng(0x7A11);
  for (int trial = 0; trial < 8; ++trial) {
    std::uint64_t counts[256] = {};
    std::uint64_t total = 0;
    for (std::uint64_t& c : counts) {
      c = trial == 0 ? 0 : rng.next() >> (40 + (trial % 3) * 8);
      total += c;
    }
    const std::uint64_t budgets[] = {0, 1, total / 100, total / 10,
                                     total / 2, total, total + 1};
    const KernelTable* scalar = tableFor(Level::kScalar);
    for (Level level : availableLevels()) {
      const KernelTable* table = tableFor(level);
      for (std::uint64_t b : budgets) {
        EXPECT_EQ(table->tailBudgetLevel(counts, b),
                  scalar->tailBudgetLevel(counts, b));
        EXPECT_EQ(table->lowPoint(counts, b), scalar->lowPoint(counts, b));
        EXPECT_EQ(table->highPoint(counts, b), scalar->highPoint(counts, b));
      }
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
                    compensate::clippedFraction(img, 1.9)};
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
  // Satellite: the O(256) histogram overload equals the pixel walk EXACTLY
  // (same double), for any gain, because both reduce to the same integer
  // count.
  const double ks[] = {0.0, 1.0, 1.0001, 1.3, 2.0, 5.5, 1e6};
  for (std::size_t n : {1u, 17u, 48u, 1000u}) {
    const Image img = randomImage(n, 0xFAB + n);
    const Histogram maxHist = Histogram::ofMaxChannel(img);
    EXPECT_EQ(maxHist.total(), n);
    for (double k : ks) {
      EXPECT_EQ(compensate::clippedFraction(maxHist, k),
                compensate::clippedFraction(img, k))
          << "n=" << n << " k=" << k;
    }
  }
  EXPECT_EQ(compensate::clippedFraction(Histogram{}, 2.0), 0.0);
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

/// Bitwise equality of doubles: tells +0.0 from -0.0 and compares NaNs by
/// payload, which EXPECT_EQ on doubles would not.
bool sameBits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

using Block = std::array<double, 64>;

/// Blocks that take every DCT code path the codec feeds it: random
/// samples, integer residuals at the +-255 extremes, all-zero, all -0.0,
/// DC-only and a full-swing checkerboard.
std::vector<Block> dctInputs() {
  std::vector<Block> blocks;
  SplitMix64 rng(0xDC7);
  for (int i = 0; i < 200; ++i) {
    Block b;
    for (double& v : b) v = rng.uniform(-255.0, 255.0);
    blocks.push_back(b);
  }
  for (int i = 0; i < 200; ++i) {
    Block b;
    for (double& v : b) {
      const std::uint64_t r = rng.below(8);
      v = r == 0 ? 255.0 : r == 1 ? -255.0 : rng.uniform(-255.0, 255.0);
      v = std::round(v);
    }
    blocks.push_back(b);
  }
  Block b{};
  blocks.push_back(b);  // all +0.0
  b.fill(-0.0);
  blocks.push_back(b);
  b.fill(0.0);
  b[0] = -0.0;
  b[9] = -0.0;
  blocks.push_back(b);  // mixed signed zeros
  b.fill(0.0);
  b[0] = 2040.0;
  blocks.push_back(b);  // DC only
  for (int i = 0; i < 64; ++i) {
    b[i] = (i / 8 + i % 8) % 2 == 0 ? 255.0 : -255.0;
  }
  blocks.push_back(b);
  b.fill(255.0);
  blocks.push_back(b);
  b.fill(-255.0);
  blocks.push_back(b);
  return blocks;
}

TEST(Kernels, DctMatchesScalarBitwise) {
  const KernelTable* scalar = tableFor(Level::kScalar);
  const std::vector<Block> inputs = dctInputs();
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << levelName(level) << " block " << i);
      Block want;
      Block got;
      scalar->fdct8x8(inputs[i].data(), want.data());
      table->fdct8x8(inputs[i].data(), got.data());
      EXPECT_TRUE(sameBits(got.data(), want.data(), 64)) << "fdct8x8";
      // The codec's inverse sees dequantised coefficients; random blocks
      // and the forward output both stand in for them.
      scalar->idct8x8(inputs[i].data(), want.data());
      table->idct8x8(inputs[i].data(), got.data());
      EXPECT_TRUE(sameBits(got.data(), want.data(), 64)) << "idct8x8";
      Block freq;
      scalar->fdct8x8(inputs[i].data(), freq.data());
      scalar->idct8x8(freq.data(), want.data());
      table->idct8x8(freq.data(), got.data());
      EXPECT_TRUE(sameBits(got.data(), want.data(), 64)) << "round trip";
    }
  }
}

TEST(Kernels, DctWrappersFollowTheActiveTable) {
  const Block in = dctInputs().front();
  const Block want = [&] {
    ScopedLevel guard(Level::kScalar);
    return inverseDct(forwardDct(in));
  }();
  for (Level level : availableLevels()) {
    ScopedLevel guard(level);
    const Block got = inverseDct(forwardDct(in));
    EXPECT_TRUE(sameBits(got.data(), want.data(), 64)) << levelName(level);
  }
}

/// Independent round-half-away-from-zero of an exact quotient, written
/// without lround.
int roundHalfAway(double q) {
  const double t = std::trunc(q);
  if (q - t >= 0.5) return static_cast<int>(t) + 1;
  if (q - t <= -0.5) return static_cast<int>(t) - 1;
  return static_cast<int>(t);
}

void expectQuantizeEq(const double* freq, const int* quant, Level level,
                      const char* what) {
  int want[64];
  int got[64];
  tableFor(Level::kScalar)->quantizeBlock(freq, quant, want);
  tableFor(level)->quantizeBlock(freq, quant, got);
  for (int i = 0; i < 64; ++i) {
    const int z = zigzagOrder()[i];
    ASSERT_EQ(got[i], want[i])
        << what << " level=" << levelName(level) << " zigzag " << i
        << " freq=" << freq[z] << " quant=" << quant[z];
    ASSERT_EQ(want[i], roundHalfAway(freq[z] / quant[z]))
        << what << " scalar reference, zigzag " << i;
  }
}

TEST(Kernels, QuantizeMatchesScalarOnRandomBlocks) {
  SplitMix64 rng(0x0A7);
  const std::vector<Block> inputs = dctInputs();
  for (Level level : availableLevels()) {
    for (const Block& spatial : inputs) {
      Block freq;
      tableFor(Level::kScalar)->fdct8x8(spatial.data(), freq.data());
      int quant[64];
      for (int& q : quant) q = 1 + static_cast<int>(rng.below(255));
      expectQuantizeEq(freq.data(), quant, level, "dct block");
      expectQuantizeEq(spatial.data(), quant, level, "raw block");
    }
  }
}

TEST(Kernels, QuantizeRoundsExactHalvesAwayFromZero) {
  // freq / quant lands exactly on k + 0.5 and -(k + 0.5): the cases where
  // round-half-even or floor(q + 0.5) would disagree with lround.
  for (Level level : availableLevels()) {
    for (const int quant : {2, 4, 10, 254}) {
      for (int base = -512; base < 512; base += 64) {
        Block freq;
        int quantBlock[64];
        for (int j = 0; j < 64; ++j) {
          const int k = base + j;
          freq[j] = (k + 0.5) * quant;  // exact: quant is even
          quantBlock[j] = quant;
        }
        expectQuantizeEq(freq.data(), quantBlock, level, "halves");
        int got[64];
        tableFor(level)->quantizeBlock(freq.data(), quantBlock, got);
        for (int i = 0; i < 64; ++i) {
          const int k = base + zigzagOrder()[i];
          EXPECT_EQ(got[i], k >= 0 ? k + 1 : k) << "k=" << k;
        }
      }
    }
    // Just inside and just outside a half, and signed zeros.
    const double edge[] = {0.5,  -0.5, std::nextafter(0.5, 0.0),
                           std::nextafter(-0.5, 0.0), 1.5, -1.5, 2.5, -2.5,
                           0.0, -0.0, std::nextafter(2.5, 3.0), 2040.0,
                           -2040.0};
    Block freq{};
    int ones[64];
    std::fill(std::begin(ones), std::end(ones), 1);
    std::copy(std::begin(edge), std::end(edge), freq.begin());
    expectQuantizeEq(freq.data(), ones, level, "edges");
  }
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
  constexpr double kCanary = 12345.678;
  constexpr std::size_t kPad = 5;
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n = 0; n <= 1000; ++n) {
      const std::vector<Rgb8> px = colourPixels(n, 0xC010 + n);
      std::vector<double> want[3];
      std::vector<double> got[3];
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
        ASSERT_TRUE(sameBits(got[c].data(), want[c].data(), n))
            << levelName(level) << " n=" << n << " plane " << c;
        for (std::size_t i = n; i < n + kPad; ++i) {
          ASSERT_EQ(got[c][i], kCanary)
              << levelName(level) << " n=" << n << " wrote past the end";
        }
      }
    }
  }
}

TEST(Kernels, YcbcrToRgbMatchesScalarOnRaggedSizes) {
  const Rgb8 canary{0xA5, 0x5A, 0xC3};
  constexpr std::size_t kPad = 5;
  // Exact clamp boundaries: with Cb = Cr = 128 every channel equals Y.
  const double specials[] = {0.0,   -0.0,  255.0, 254.5, 254.49999999999997,
                             0.5,   0.49999999999999994, -1e-300,
                             255.00000000000003, 127.5, -300.0, 600.0};
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    for (std::size_t n = 0; n <= 1000; ++n) {
      SplitMix64 rng(0xB00 + n);
      std::vector<double> y(n);
      std::vector<double> cb(n);
      std::vector<double> cr(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 7 == 3) {
          y[i] = specials[rng.below(std::size(specials))];
          cb[i] = 128.0;
          cr[i] = 128.0;
        } else {
          // Decoded planes overshoot [0, 255] after quantisation noise.
          y[i] = rng.uniform(-40.0, 300.0);
          cb[i] = rng.uniform(-40.0, 300.0);
          cr[i] = rng.uniform(-40.0, 300.0);
        }
      }
      std::vector<Rgb8> want(n + kPad, canary);
      std::vector<Rgb8> got(n + kPad, canary);
      tableFor(Level::kScalar)
          ->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), n, want.data());
      table->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), n, got.data());
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << levelName(level) << " n=" << n;
      for (std::size_t i = n; i < n + kPad; ++i) {
        ASSERT_EQ(got[i], canary) << levelName(level) << " n=" << n;
      }
    }
  }
}

TEST(Kernels, ColourRoundTripOfGreyIsExactAtEveryLevel) {
  // Grey pixels have Cb = Cr = 128 up to rounding and must come back
  // unchanged through the codec's two conversions.
  std::vector<Rgb8> px;
  for (int v = 0; v < 256; ++v) {
    const auto c = static_cast<std::uint8_t>(v);
    px.push_back(Rgb8{c, c, c});
  }
  for (Level level : availableLevels()) {
    const KernelTable* table = tableFor(level);
    std::vector<double> y(px.size());
    std::vector<double> cb(px.size());
    std::vector<double> cr(px.size());
    table->rgbToYcbcrPlanes(px.data(), px.size(), y.data(), cb.data(),
                            cr.data());
    std::vector<Rgb8> back(px.size());
    table->ycbcrPlanesToRgb(y.data(), cb.data(), cr.data(), px.size(),
                            back.data());
    EXPECT_EQ(back, px) << levelName(level);
  }
}

}  // namespace
}  // namespace anno::media::kernels
