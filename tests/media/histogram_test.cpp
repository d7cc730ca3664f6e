#include "media/histogram.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "media/rng.h"

namespace anno::media {
namespace {

Histogram uniformHist(int lo, int hi, std::uint64_t perBin = 10) {
  Histogram h;
  for (int v = lo; v <= hi; ++v) {
    h.add(static_cast<std::uint8_t>(v), perBin);
  }
  return h;
}

TEST(Histogram, EmptyDefaults) {
  Histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.averagePoint(), 0.0);
  EXPECT_EQ(h.lowPoint(), 0);
  EXPECT_EQ(h.highPoint(), 255);
}

TEST(Histogram, OfImageCountsLuma) {
  Image img(2, 2);
  img(0, 0) = Rgb8{0, 0, 0};
  img(1, 0) = Rgb8{255, 255, 255};
  img(0, 1) = Rgb8{100, 100, 100};
  img(1, 1) = Rgb8{100, 100, 100};
  const Histogram h = Histogram::ofImage(img);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(100), 2u);
  EXPECT_EQ(h.count(255), 1u);
}

TEST(Histogram, OfGrayCounts) {
  GrayImage img(3, 1, 50);
  img(2, 0) = 200;
  const Histogram h = Histogram::ofGray(img);
  EXPECT_EQ(h.count(50), 2u);
  EXPECT_EQ(h.count(200), 1u);
}

TEST(Histogram, AveragePoint) {
  Histogram h;
  h.add(10, 1);
  h.add(30, 3);
  EXPECT_DOUBLE_EQ(h.averagePoint(), (10.0 + 90.0) / 4.0);
}

TEST(Histogram, DynamicRangeNoTrim) {
  const Histogram h = uniformHist(40, 200);
  EXPECT_EQ(h.lowPoint(), 40);
  EXPECT_EQ(h.highPoint(), 200);
  EXPECT_EQ(h.dynamicRange(), 160);
}

TEST(Histogram, DynamicRangeTrimsOutliers) {
  Histogram h = uniformHist(100, 110, 1000);
  h.add(255, 1);  // single hot pixel
  EXPECT_EQ(h.highPoint(0.0), 255);
  EXPECT_EQ(h.highPoint(0.001), 110);  // the outlier is trimmed away
}

TEST(Histogram, TrimValidation) {
  const Histogram h = uniformHist(0, 10);
  EXPECT_THROW((void)h.dynamicRange(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.dynamicRange(0.5), std::invalid_argument);
}

TEST(Histogram, QuantileMonotone) {
  const Histogram h = uniformHist(0, 255, 4);
  std::uint8_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    const std::uint8_t v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, FractionAbove) {
  Histogram h;
  h.add(10, 90);
  h.add(250, 10);
  EXPECT_DOUBLE_EQ(h.fractionAbove(10), 0.1);
  EXPECT_DOUBLE_EQ(h.fractionAbove(250), 0.0);
  EXPECT_DOUBLE_EQ(h.fractionAbove(5), 1.0);
}

TEST(Histogram, AccumulateAddsCounts) {
  Histogram a = uniformHist(0, 9, 1);
  const Histogram b = uniformHist(5, 14, 1);
  a.accumulate(b);
  EXPECT_EQ(a.total(), 20u);
  EXPECT_EQ(a.count(7), 2u);
  EXPECT_EQ(a.count(12), 1u);
}

TEST(Histogram, FromCountsMatchesAdds) {
  std::array<std::uint64_t, 256> counts{};
  counts[3] = 5;
  counts[200] = 7;
  const Histogram h = Histogram::fromCounts(counts);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.count(3), 5u);
}

TEST(HistogramDistance, IdenticalAreZero) {
  const Histogram h = uniformHist(10, 60);
  EXPECT_DOUBLE_EQ(Histogram::intersection(h, h), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::earthMovers(h, h), 0.0);
}

TEST(HistogramDistance, DisjointAreMaximal) {
  const Histogram a = uniformHist(0, 50);
  const Histogram b = uniformHist(100, 150);
  EXPECT_DOUBLE_EQ(Histogram::intersection(a, b), 0.0);
}

TEST(HistogramDistance, EmdEqualsShiftForTranslation) {
  // EMD of a distribution against itself shifted by d bins is exactly d.
  Histogram a, b;
  a.add(50, 7);
  b.add(73, 7);
  EXPECT_NEAR(Histogram::earthMovers(a, b), 23.0, 1e-9);
}

TEST(HistogramDistance, EmdIsSymmetric) {
  SplitMix64 rng(5);
  Histogram a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(static_cast<std::uint8_t>(rng.below(256)));
    b.add(static_cast<std::uint8_t>(rng.below(256)));
  }
  EXPECT_NEAR(Histogram::earthMovers(a, b), Histogram::earthMovers(b, a),
              1e-12);
}

TEST(Histogram, AsciiPlotGeometry) {
  const Histogram h = uniformHist(0, 255);
  const std::string plot = h.asciiPlot(5, 32);
  // 5 data rows + 1 axis row, each 32 chars + newline.
  EXPECT_EQ(plot.size(), 6u * 33u);
  EXPECT_THROW(h.asciiPlot(0, 10), std::invalid_argument);
  EXPECT_THROW(h.asciiPlot(5, 300), std::invalid_argument);
}

class HistogramQuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistogramQuantileProperty, QuantileBoundsFractionAbove) {
  // Property: at most `q` of the mass lies strictly above quantile(1-q)...
  // verified over random histograms.
  SplitMix64 rng(GetParam());
  Histogram h;
  const int n = 1 + static_cast<int>(rng.below(5000));
  for (int i = 0; i < n; ++i) {
    h.add(static_cast<std::uint8_t>(rng.below(256)));
  }
  for (double q : {0.0, 0.05, 0.1, 0.2, 0.5}) {
    const std::uint8_t cutoff = h.quantile(1.0 - q);
    EXPECT_LE(h.fractionAbove(cutoff), q + 1e-12)
        << "q=" << q << " cutoff=" << int(cutoff) << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistograms, HistogramQuantileProperty,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace anno::media
