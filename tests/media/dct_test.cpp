// Properties of the fixed-point islow transforms, checked against an
// in-test double-precision orthonormal DCT.  Samples are Q5 (32 x the
// 8-bit value); forward coefficients carry 8 fractional bits; inverse
// coefficients are integers.
//
// Tolerances follow the fixed-point error budget, in orthonormal
// coefficient units for the forward transform:
//   * output rounding, 2^-9;
//   * pass-1 rounding, at most 1/2 LSB on each of the 8 pass-1 values a
//     column combines, which the column pass scales to at most 2^-4;
//   * the 13-bit constants, each within 2^-14 of its real value, at most
//     four on any path of each pass: 2 * 4 * 2^-14 of the input's
//     unnormalised 1-D sums, bounded by 2^-11 * (sum |x|) / 8.
// and in samples for the inverse:
//   * output rounding, 1/2 Q5 LSB = 2^-6;
//   * pass-1 rounding, 1/16 LSB (three fractional bits) on 8 values, at
//     most 0.93 Q5 LSB after the row pass, 0.03;
//   * the constants as above, 2^-11 * (sum |F|) / 8.
#include "media/dct.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "media/rng.h"

namespace anno::media {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kSampleScale = 32.0;    // Q5 samples
constexpr double kCoefScale = 256.0;     // forward coefficient LSB

using Real = std::array<double, 64>;

double basis(int k, int n) {
  const double ck = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
  return ck * std::cos((2.0 * n + 1.0) * k * kPi / 16.0);
}

/// Orthonormal 2-D DCT-II of 8-bit-scale samples.
Real referenceDct(const Real& x) {
  Real f{};
  for (int j = 0; j < 8; ++j) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y) {
        for (int n = 0; n < 8; ++n) {
          acc += basis(j, y) * basis(k, n) * x[y * 8 + n];
        }
      }
      f[j * 8 + k] = acc;
    }
  }
  return f;
}

Real referenceIdct(const Real& f) {
  Real x{};
  for (int y = 0; y < 8; ++y) {
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int j = 0; j < 8; ++j) {
        for (int k = 0; k < 8; ++k) {
          acc += basis(j, y) * basis(k, n) * f[j * 8 + k];
        }
      }
      x[y * 8 + n] = acc;
    }
  }
  return x;
}

double l1(const Real& v) {
  double s = 0.0;
  for (double e : v) s += std::abs(e);
  return s;
}

double forwardTolerance(const Real& x) {
  return 1.0 / 512 + 1.0 / 16 + l1(x) / 8 / 2048;
}

double inverseTolerance(const Real& f) {
  return 1.0 / 64 + 0.03 + l1(f) / 8 / 2048;
}

Real samplesOf(const SampleBlock& s) {
  Real x;
  for (int i = 0; i < 64; ++i) x[i] = s[i] / kSampleScale;
  return x;
}

Real coefsOf(const CoefBlock& c, double scale) {
  Real f;
  for (int i = 0; i < 64; ++i) f[i] = c[i] / scale;
  return f;
}

SampleBlock randomBlock(SplitMix64& rng, int lo, int hi) {
  SampleBlock s;
  for (auto& v : s) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    v = static_cast<std::int16_t>(lo + static_cast<int>(rng.below(span)));
  }
  return s;
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  // DC = 8 * mean for a constant block, exactly; every AC term cancels.
  for (const int value : {0, 1, 100, 255, -255}) {
    SampleBlock spatial;
    spatial.fill(static_cast<std::int16_t>(value * 32));
    const CoefBlock freq = forwardDct(spatial);
    EXPECT_EQ(freq[0], 8 * value * 256) << value;
    for (int i = 1; i < 64; ++i) {
      EXPECT_EQ(freq[i], 0) << "coefficient " << i;
    }
    CoefBlock dcOnly{};
    dcOnly[0] = 8 * value;
    const SampleBlock back = inverseDct(dcOnly);
    for (const std::int16_t v : back) EXPECT_EQ(v, value * 32);
  }
}

TEST(Dct, MatchesTheRealTransformWithinTheErrorBound) {
  SplitMix64 rng(20);
  for (int trial = 0; trial < 200; ++trial) {
    const SampleBlock s = randomBlock(rng, -8192, 8192);
    const Real x = samplesOf(s);
    const Real want = referenceDct(x);
    const Real got = coefsOf(forwardDct(s), kCoefScale);
    const double tol = forwardTolerance(x);
    for (int i = 0; i < 64; ++i) ASSERT_NEAR(got[i], want[i], tol) << i;

    CoefBlock c;
    for (auto& v : c) v = static_cast<std::int32_t>(rng.below(4609)) - 2304;
    const Real f = coefsOf(c, 1.0);
    const Real back = referenceIdct(f);
    const Real gotBack = samplesOf(inverseDct(c));
    const double itol = inverseTolerance(f);
    for (int i = 0; i < 64; ++i) {
      // Outputs beyond int16 saturate; the rest are within the bound.
      if (std::abs(back[i]) * kSampleScale < 32000) {
        ASSERT_NEAR(gotBack[i], back[i], itol) << i;
      }
    }
  }
}

TEST(Dct, RoundtripIsIdentity) {
  // Rounding the coefficients to integers is the only real loss: at most
  // 1/2 + the forward bound per coefficient, so by Parseval the RMS sample
  // error is at most that too, plus the inverse bound.
  SplitMix64 rng(21);
  for (int trial = 0; trial < 100; ++trial) {
    const SampleBlock spatial = randomBlock(rng, 0, 255 * 32);
    const Real x = samplesOf(spatial);
    const CoefBlock freq = forwardDct(spatial);
    CoefBlock rounded;
    for (int i = 0; i < 64; ++i) {
      rounded[i] = (freq[i] + 128) >> 8;
    }
    const Real back = samplesOf(inverseDct(rounded));
    double se = 0.0;
    for (int i = 0; i < 64; ++i) se += (back[i] - x[i]) * (back[i] - x[i]);
    const double bound =
        0.5 + forwardTolerance(x) + inverseTolerance(coefsOf(rounded, 1.0));
    EXPECT_LE(std::sqrt(se / 64), bound) << trial;
  }
}

TEST(Dct, PreservesEnergy) {
  // Orthonormal transform: sum of squares is invariant (Parseval), up to
  // the coefficient error e: |E_F - E_x| <= 2 |x| |e| + |e|^2.
  SplitMix64 rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const SampleBlock spatial = randomBlock(rng, -3200, 3200);
    const Real x = samplesOf(spatial);
    const Real f = coefsOf(forwardDct(spatial), kCoefScale);
    const auto energy = [](const Real& b) {
      return std::inner_product(b.begin(), b.end(), b.begin(), 0.0);
    };
    const double e = 8.0 * forwardTolerance(x);
    const double norm = std::sqrt(energy(x));
    EXPECT_NEAR(energy(f), energy(x), 2 * norm * e + e * e);
  }
}

TEST(Dct, LinearityProperty) {
  // Each transform is within the bound of the linear real one, so
  // F(a + b) - F(a) - F(b) is within the three bounds.
  SplitMix64 rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const SampleBlock a = randomBlock(rng, -1600, 1600);
    const SampleBlock b = randomBlock(rng, -1600, 1600);
    SampleBlock sum;
    for (int i = 0; i < 64; ++i) {
      sum[i] = static_cast<std::int16_t>(a[i] + b[i]);
    }
    const Real fa = coefsOf(forwardDct(a), kCoefScale);
    const Real fb = coefsOf(forwardDct(b), kCoefScale);
    const Real fsum = coefsOf(forwardDct(sum), kCoefScale);
    const double tol = forwardTolerance(samplesOf(a)) +
                       forwardTolerance(samplesOf(b)) +
                       forwardTolerance(samplesOf(sum));
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(fsum[i], fa[i] + fb[i], tol);
    }
  }
}

TEST(Zigzag, IsPermutationOf64) {
  const auto& zz = zigzagOrder();
  std::set<int> seen(zz.begin(), zz.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(Zigzag, JpegPrefix) {
  // First entries of the JPEG zigzag: 0, (0,1), (1,0), (2,0), (1,1), (0,2).
  const auto& zz = zigzagOrder();
  EXPECT_EQ(zz[0], 0);
  EXPECT_EQ(zz[1], 1);       // row 0, col 1
  EXPECT_EQ(zz[2], 8);       // row 1, col 0
  EXPECT_EQ(zz[3], 16);      // row 2, col 0
  EXPECT_EQ(zz[4], 9);       // row 1, col 1
  EXPECT_EQ(zz[5], 2);       // row 0, col 2
  EXPECT_EQ(zz[63], 63);     // last is bottom-right
}

TEST(Dct, HorizontalCosineConcentratesInOneCoefficient) {
  // A pure horizontal basis function should produce (almost) one non-zero
  // frequency-domain coefficient.  Rounding the input to Q5 moves every
  // coefficient by at most sum |basis| * 2^-6 = 8 * 2^-6.
  SampleBlock spatial;
  Real x;
  for (int y = 0; y < 8; ++y) {
    for (int n = 0; n < 8; ++n) {
      x[y * 8 + n] = 100.0 * std::cos((2 * n + 1) * 3 * kPi / 16.0);
      spatial[y * 8 + n] =
          static_cast<std::int16_t>(std::lround(x[y * 8 + n] * kSampleScale));
    }
  }
  const Real freq = coefsOf(forwardDct(spatial), kCoefScale);
  const Real want = referenceDct(x);
  const double tol = forwardTolerance(x) + 8.0 / 64;
  // Expect energy only at (j=0, k=3): 100 * sqrt(8) * sqrt(2/8) * 4.
  EXPECT_NEAR(want[3], 100.0 * std::sqrt(8.0) * std::sqrt(2.0 / 8.0) * 4,
              1e-9);
  for (int j = 0; j < 8; ++j) {
    for (int k = 0; k < 8; ++k) {
      const int i = j * 8 + k;
      EXPECT_NEAR(freq[i], want[i], tol) << i;
      if (i != 3) {
        EXPECT_NEAR(freq[i], 0.0, tol) << i;
      }
    }
  }
}

}  // namespace
}  // namespace anno::media
