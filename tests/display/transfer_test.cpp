#include "display/transfer.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <utility>
#include <vector>

namespace anno::display {
namespace {

void expectMonotoneNormalized(const TransferFunction& tf) {
  double prev = -1.0;
  for (int level = 0; level < 256; ++level) {
    const double v = tf.relLuminance(level);
    EXPECT_GE(v, prev) << "level " << level;
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(tf.relLuminance(255), 1.0);
}

TEST(Transfer, DefaultIsLinear) {
  const TransferFunction tf;
  EXPECT_DOUBLE_EQ(tf.relLuminance(0), 0.0);
  EXPECT_NEAR(tf.relLuminance(128), 128.0 / 255.0, 1e-12);
  EXPECT_DOUBLE_EQ(tf.relLuminance(255), 1.0);
}

TEST(Transfer, DefaultAndLinearAreExactlyIOver255) {
  const TransferFunction def;
  const TransferFunction lin = TransferFunction::linear();
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(def.lut()[i], i / 255.0) << "level " << i;
    EXPECT_EQ(lin.lut()[i], i / 255.0) << "level " << i;
  }
}

TEST(Transfer, CopiesShareTheirTable) {
  const TransferFunction a = TransferFunction::gamma(0.75);
  const TransferFunction copy = a;
  EXPECT_TRUE(copy.sharesLut(a));
  const TransferFunction rebuilt = TransferFunction::gamma(0.75);
  EXPECT_EQ(rebuilt.lut(), a.lut());
  EXPECT_FALSE(rebuilt.sharesLut(a)) << "equal values, separate tables";
  EXPECT_TRUE(TransferFunction().sharesLut(TransferFunction::linear()));
}

struct NamedTransfer {
  const char* name;
  TransferFunction tf;
};

class TransferShapes : public ::testing::TestWithParam<int> {
 public:
  static std::vector<NamedTransfer> shapes() {
    return {
        {"linear", TransferFunction::linear()},
        {"gamma075", TransferFunction::gamma(0.75)},
        {"gamma22", TransferFunction::gamma(2.2)},
        {"ccfl", TransferFunction::ccfl()},
        {"ccfl_hi", TransferFunction::ccfl(0.3, 1.5)},
    };
  }
};

TEST_P(TransferShapes, MonotoneAndNormalized) {
  expectMonotoneNormalized(shapes()[GetParam()].tf);
}

TEST_P(TransferShapes, InverseReturnsMinimalLevel) {
  // A copy: shapes() returns a temporary vector, which a reference into
  // it would outlive.
  const TransferFunction tf = shapes()[GetParam()].tf;
  for (double target = 0.0; target <= 1.0; target += 0.05) {
    const std::uint8_t level = tf.minimumLevelFor(target);
    EXPECT_GE(tf.relLuminance(level), target - 1e-12);
    if (level > 0) {
      EXPECT_LT(tf.relLuminance(level - 1), target)
          << "level " << int(level) << " not minimal for target " << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllShapes, TransferShapes, ::testing::Range(0, 5));

TEST(Transfer, GammaConcaveVsConvex) {
  const TransferFunction concave = TransferFunction::gamma(0.5);
  const TransferFunction convex = TransferFunction::gamma(2.0);
  // Concave (g<1) lies above the diagonal, convex below.
  EXPECT_GT(concave.relLuminance(128), 128.0 / 255.0 + 0.05);
  EXPECT_LT(convex.relLuminance(128), 128.0 / 255.0 - 0.05);
}

TEST(Transfer, CcflHasDeadZone) {
  const TransferFunction tf = TransferFunction::ccfl(0.2, 1.1);
  EXPECT_DOUBLE_EQ(tf.relLuminance(0), 0.0);
  EXPECT_DOUBLE_EQ(tf.relLuminance(static_cast<int>(0.19 * 255)), 0.0);
  EXPECT_GT(tf.relLuminance(static_cast<int>(0.3 * 255)), 0.0);
}

TEST(Transfer, FromLutNormalizesAndMonotonizes) {
  std::array<double, 256> lut{};
  for (int i = 0; i < 256; ++i) {
    lut[i] = 0.5 * i / 255.0;  // tops out at 0.5: must be renormalized
  }
  lut[100] = 0.0;  // non-monotone dip: must be smoothed by running max
  const TransferFunction tf = TransferFunction::fromLut(lut);
  expectMonotoneNormalized(tf);
}

TEST(Transfer, FromLutValidation) {
  std::vector<double> tooShort(100, 0.5);
  EXPECT_THROW((void)TransferFunction::fromLut(tooShort),
               std::invalid_argument);
  std::array<double, 256> zeros{};
  EXPECT_THROW((void)TransferFunction::fromLut(zeros), std::invalid_argument);
}

TEST(Transfer, BuilderValidation) {
  EXPECT_THROW((void)TransferFunction::gamma(0.0), std::invalid_argument);
  EXPECT_THROW((void)TransferFunction::gamma(-1.0), std::invalid_argument);
  EXPECT_THROW((void)TransferFunction::ccfl(1.0), std::invalid_argument);
}

TEST(Transfer, RelLuminanceValidatesRange) {
  const TransferFunction tf;
  EXPECT_THROW((void)tf.relLuminance(-1), std::invalid_argument);
  EXPECT_THROW((void)tf.relLuminance(256), std::invalid_argument);
}

TEST(Transfer, FitFromSamplesRecoversLinear) {
  std::vector<std::pair<int, double>> samples;
  for (int level = 0; level <= 255; level += 15) {
    samples.emplace_back(level, level / 255.0 * 3.7);  // arbitrary scale
  }
  const TransferFunction tf = TransferFunction::fitFromSamples(samples);
  for (int level = 0; level < 256; ++level) {
    EXPECT_NEAR(tf.relLuminance(level), level / 255.0, 0.01)
        << "level " << level;
  }
}

TEST(Transfer, FitFromSamplesRecoversGamma) {
  const TransferFunction truth = TransferFunction::gamma(0.75);
  std::vector<std::pair<int, double>> samples;
  for (int level = 0; level <= 255; level += 5) {
    samples.emplace_back(level, truth.relLuminance(level));
  }
  const TransferFunction fitted = TransferFunction::fitFromSamples(samples);
  for (int level = 0; level < 256; ++level) {
    EXPECT_NEAR(fitted.relLuminance(level), truth.relLuminance(level), 0.01);
  }
}

TEST(Transfer, FitFromSamplesValidation) {
  std::vector<std::pair<int, double>> one = {{10, 0.5}};
  EXPECT_THROW((void)TransferFunction::fitFromSamples(one),
               std::invalid_argument);
  std::vector<std::pair<int, double>> dup = {{10, 0.5}, {10, 0.6}};
  EXPECT_THROW((void)TransferFunction::fitFromSamples(dup),
               std::invalid_argument);
  std::vector<std::pair<int, double>> oob = {{-1, 0.1}, {10, 0.5}};
  EXPECT_THROW((void)TransferFunction::fitFromSamples(oob),
               std::invalid_argument);
}

TEST(Transfer, MinimumLevelForClampsTarget) {
  const TransferFunction tf;
  EXPECT_EQ(tf.minimumLevelFor(-0.5), 0);
  EXPECT_EQ(tf.minimumLevelFor(2.0), 255);
}

}  // namespace
}  // namespace anno::display
