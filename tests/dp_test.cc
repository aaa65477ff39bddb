#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dp/laplace_mechanism.h"

namespace fm::dp {
namespace {

TEST(LaplaceMechanismTest, ValidatesParameters) {
  EXPECT_TRUE(LaplaceMechanism::Create(0.5, 2.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(0.0, 2.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(-1.0, 2.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(0.5, 0.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(
                   std::numeric_limits<double>::infinity(), 1.0)
                   .ok());
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  const auto mech = LaplaceMechanism::Create(0.8, 8.0);
  ASSERT_TRUE(mech.ok());
  EXPECT_DOUBLE_EQ(mech.ValueOrDie().scale(), 10.0);
  EXPECT_DOUBLE_EQ(mech.ValueOrDie().NoiseStddev(), 10.0 * std::sqrt(2.0));
}

TEST(LaplaceMechanismTest, NoiseIsCenteredWithCorrectSpread) {
  const auto mech = LaplaceMechanism::Create(1.0, 2.0);  // b = 2
  ASSERT_TRUE(mech.ok());
  Rng rng(101);
  const int n = 100000;
  double sum = 0.0, sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    const double noisy = mech.ValueOrDie().Perturb(5.0, rng);
    sum += noisy - 5.0;
    sum_abs += std::fabs(noisy - 5.0);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_abs / n, 2.0, 0.05);  // E|Lap(b)| = b
}

TEST(LaplaceMechanismTest, VectorPerturbationIsElementwiseIndependent) {
  const auto mech = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(103);
  linalg::Vector v(3, 1.0);
  const linalg::Vector noisy = mech.ValueOrDie().Perturb(v, rng);
  EXPECT_EQ(noisy.size(), 3u);
  // Astronomically unlikely that two i.i.d. continuous samples coincide.
  EXPECT_NE(noisy[0], noisy[1]);
  EXPECT_NE(noisy[1], noisy[2]);
}

TEST(LaplaceMechanismTest, SymmetricPerturbationPreservesSymmetry) {
  const auto mech = LaplaceMechanism::Create(0.5, 4.0);
  ASSERT_TRUE(mech.ok());
  Rng rng(107);
  linalg::Matrix m(5, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i; j < 5; ++j) {
      m(i, j) = m(j, i) = static_cast<double>(i + j);
    }
  }
  const linalg::Matrix noisy = mech.ValueOrDie().PerturbSymmetric(m, rng);
  EXPECT_TRUE(noisy.IsSymmetric(0.0));
  EXPECT_GT(linalg::MaxAbsDiff(noisy, m), 0.0);  // noise actually applied
}

}  // namespace
}  // namespace fm::dp
