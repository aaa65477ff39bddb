#include <cmath>

#include <gtest/gtest.h>

#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/objective_accumulator.h"
#include "eval/metrics.h"
#include "opt/logistic_loss.h"

namespace fm::core {
namespace {

// Synthetic contract-satisfying dataset with a planted linear model.
data::RegressionDataset MakeLinearData(size_t n, size_t d, double noise,
                                       uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(0.0, scale);
      // Planted weights alternate ±1 on the normalized features.
      y += (j % 2 == 0 ? 1.0 : -1.0) * ds.x(i, j);
    }
    y += rng.Gaussian(0.0, noise);
    ds.y[i] = std::clamp(y, -1.0, 1.0);
  }
  return ds;
}

data::RegressionDataset MakeLogisticData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(0.0, scale);
      z += (j % 2 == 0 ? 6.0 : -6.0) * (ds.x(i, j) - 0.5 * scale);
    }
    ds.y[i] = rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0;
  }
  return ds;
}

TEST(FmLinearTest, HighEpsilonMatchesOls) {
  const auto train = MakeLinearData(5000, 4, 0.05, 1001);
  FmOptions options;
  options.epsilon = 1e6;
  FmLinearRegression fm(options);
  Rng rng(1);
  const auto fit = fm.Fit(train, rng);
  ASSERT_TRUE(fit.ok()) << fit.status();
  Rng ols_rng(2);
  const auto ols = baselines::NoPrivacy()
                       .Train(train, data::TaskKind::kLinear, ols_rng)
                       .ValueOrDie()
                       .omega;
  // λ-regularization keeps a small bias even with negligible noise; the
  // error against exact OLS must still be tiny relative to signal scale.
  EXPECT_LT(linalg::MaxAbsDiff(fit.ValueOrDie().omega, ols), 0.05);
}

TEST(FmLinearTest, ErrorDecreasesWithCardinality) {
  // Theorem 2's convergence: the mechanism's excess MSE over OLS shrinks as
  // n grows (noise scale is constant while the signal grows with n).
  FmOptions options;
  options.epsilon = 0.8;
  FmLinearRegression fm(options);
  const auto test = MakeLinearData(4000, 4, 0.05, 77);

  auto mean_mse = [&](size_t n, uint64_t seed_base) {
    double total = 0.0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      const auto train = MakeLinearData(n, 4, 0.05, seed_base + t);
      Rng rng(DeriveSeed(seed_base, t));
      const auto fit = fm.Fit(train, rng);
      EXPECT_TRUE(fit.ok());
      total += eval::MeanSquaredError(fit.ValueOrDie().omega, test);
    }
    return total / trials;
  };

  const double mse_small = mean_mse(300, 2000);
  const double mse_large = mean_mse(30000, 3000);
  EXPECT_LT(mse_large, mse_small);
}

TEST(FmLinearTest, ValidatesInputContract) {
  FmOptions options;
  FmLinearRegression fm(options);
  Rng rng(3);
  data::RegressionDataset empty;
  empty.x = linalg::Matrix(0, 2);
  empty.y = linalg::Vector(0);
  EXPECT_EQ(fm.Fit(empty, rng).status().code(),
            StatusCode::kFailedPrecondition);

  auto bad = MakeLinearData(10, 2, 0.0, 5);
  bad.x(0, 0) = 50.0;  // breaks ‖x‖ ≤ 1
  EXPECT_EQ(fm.Fit(bad, rng).status().code(), StatusCode::kInvalidArgument);
}

TEST(FmLinearTest, PredictIsDotProduct) {
  EXPECT_DOUBLE_EQ(
      FmLinearRegression::Predict(linalg::Vector{2.0, -1.0},
                                  linalg::Vector{0.5, 0.25}),
      0.75);
}

TEST(FmLogisticTest, HighEpsilonMatchesTruncatedOptimum) {
  const auto train = MakeLogisticData(8000, 3, 2001);
  FmOptions options;
  options.epsilon = 1e6;
  FmLogisticRegression fm(options);
  Rng rng(7);
  const auto fit = fm.Fit(train, rng);
  ASSERT_TRUE(fit.ok()) << fit.status();
  // Compare against the noiseless truncated objective's minimizer.
  const auto truncated =
      ObjectiveAccumulator::Build(train, ObjectiveKind::kTruncatedLogistic)
          .Global()
          .Minimize();
  ASSERT_TRUE(truncated.ok());
  EXPECT_LT(linalg::MaxAbsDiff(fit.ValueOrDie().omega,
                               truncated.ValueOrDie()),
            0.05);
}

TEST(FmLogisticTest, BeatsCoinFlipAtModerateBudget) {
  const auto train = MakeLogisticData(20000, 3, 2003);
  const auto test = MakeLogisticData(4000, 3, 2005);
  FmOptions options;
  options.epsilon = 3.2;
  FmLogisticRegression fm(options);
  Rng rng(9);
  const auto fit = fm.Fit(train, rng);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(eval::MisclassificationRate(fit.ValueOrDie().omega, test), 0.45);
}

TEST(FmLogisticTest, RejectsNonBinaryLabels) {
  auto train = MakeLogisticData(50, 2, 11);
  train.y[0] = 0.5;
  FmOptions options;
  FmLogisticRegression fm(options);
  Rng rng(13);
  EXPECT_EQ(fm.Fit(train, rng).status().code(), StatusCode::kInvalidArgument);
}

TEST(FmLogisticTest, PredictProbabilityIsSigmoid) {
  const linalg::Vector omega{1.0};
  const linalg::Vector x{0.0};
  EXPECT_DOUBLE_EQ(FmLogisticRegression::PredictProbability(omega, x), 0.5);
  EXPECT_DOUBLE_EQ(FmLogisticRegression::Classify(omega, linalg::Vector{2.0}),
                   1.0);
  EXPECT_DOUBLE_EQ(FmLogisticRegression::Classify(omega, linalg::Vector{-2.0}),
                   0.0);
}

TEST(FmLogisticTest, DeltaIndependentOfCardinality) {
  // §5.3's headline property: the noise scale depends only on d.
  FmOptions options;
  options.epsilon = 0.8;
  FmLogisticRegression fm(options);
  for (size_t n : {100u, 1000u, 10000u}) {
    const auto train = MakeLogisticData(n, 4, 3000 + n);
    Rng rng(DeriveSeed(17, n));
    const auto fit = fm.Fit(train, rng);
    ASSERT_TRUE(fit.ok());
    EXPECT_DOUBLE_EQ(fit.ValueOrDie().delta, LogisticRegressionSensitivity(4));
    EXPECT_DOUBLE_EQ(fit.ValueOrDie().laplace_scale,
                     LogisticRegressionSensitivity(4) / 0.8);
  }
}

TEST(FmFitTest, DeterministicGivenSeed) {
  const auto train = MakeLinearData(500, 3, 0.1, 4001);
  FmOptions options;
  options.epsilon = 0.8;
  FmLinearRegression fm(options);
  Rng rng_a(42), rng_b(42);
  const auto fit_a = fm.Fit(train, rng_a);
  const auto fit_b = fm.Fit(train, rng_b);
  ASSERT_TRUE(fit_a.ok() && fit_b.ok());
  EXPECT_TRUE(linalg::AllClose(fit_a.ValueOrDie().omega,
                               fit_b.ValueOrDie().omega, 0.0));
}

}  // namespace
}  // namespace fm::core
