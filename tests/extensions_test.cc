// Tests for the extension modules: output perturbation and Algorithm 1 on
// degree ≥ 3 polynomial objectives.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/output_perturbation.h"
#include "common/rng.h"
#include "core/functional_mechanism.h"
#include "eval/metrics.h"
#include "opt/logistic_loss.h"

namespace fm {
namespace {

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
      z += (j % 2 == 0 ? 8.0 : -8.0) * ds.x(i, j);
    }
    ds.y[i] = rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0;
  }
  return ds;
}

TEST(OutputPerturbationTest, LinearUnimplementedLogisticWorks) {
  baselines::OutputPerturbation::Options options;
  options.epsilon = 3.2;
  baselines::OutputPerturbation algo(options);
  EXPECT_EQ(algo.name(), "OutPert");
  EXPECT_TRUE(algo.is_private());
  Rng rng(223);

  const auto linear_data = MakeLogisticData(100, 2, 225);
  EXPECT_EQ(
      algo.Train(linear_data, data::TaskKind::kLinear, rng).status().code(),
      StatusCode::kUnimplemented);

  const auto train = MakeLogisticData(20000, 2, 227);
  const auto test = MakeLogisticData(4000, 2, 229);
  const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 3.2);
  EXPECT_LT(eval::MisclassificationRate(model.ValueOrDie().omega, test),
            0.45);
}

TEST(OutputPerturbationTest, NoiseShrinksWithCardinality) {
  // Sensitivity 2/(nλ): doubling n halves the expected parameter noise.
  baselines::OutputPerturbation::Options options;
  options.epsilon = 1.0;
  options.lambda = 1e-2;
  baselines::OutputPerturbation algo(options);

  auto mean_noise = [&](size_t n, uint64_t seed) {
    const auto train = MakeLogisticData(n, 2, 231);
    const auto exact = opt::FitLogisticNewton(
                           train.x, train.y,
                           options.lambda * static_cast<double>(train.size()))
                           .ValueOrDie();
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      Rng rng(DeriveSeed(seed, t));
      const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
      EXPECT_TRUE(model.ok());
      total += (model.ValueOrDie().omega - exact).Norm2();
    }
    return total / trials;
  };
  EXPECT_LT(mean_noise(8000, 300), mean_noise(1000, 400));
}

TEST(FitPolynomialTest, QuadraticInputTakesExactPath) {
  // Degree-2 polynomial → same machinery as FitQuadratic.
  core::PolynomialObjective poly(1);
  poly.AddTerm(core::Monomial({0}), 1.25);
  poly.AddTerm(core::Monomial({1}), -2.34);
  poly.AddTerm(core::Monomial({2}), 2.06);
  core::FunctionalMechanism::PolynomialFitOptions options;
  options.base.epsilon = 1e7;
  options.base.post_processing = core::PostProcessing::kNone;
  Rng rng(233);
  const auto fit =
      core::FunctionalMechanism::FitPolynomial(poly, 8.0, options, rng);
  ASSERT_TRUE(fit.ok()) << fit.status();
  EXPECT_NEAR(fit.ValueOrDie().omega[0], 117.0 / 206.0, 1e-3);
}

TEST(FitPolynomialTest, QuarticRecoveredAtHighEpsilon) {
  // f(ω) = (ω² − 0.25)² + 0.1ω has degree 4 and minima near ω ≈ ±0.5; the
  // 0.1ω tilt makes ω ≈ −0.5 the global one inside the unit ball.
  core::PolynomialObjective poly(1);
  poly.AddTerm(core::Monomial({4}), 1.0);
  poly.AddTerm(core::Monomial({2}), -0.5);
  poly.AddTerm(core::Monomial({0}), 0.0625);
  poly.AddTerm(core::Monomial({1}), 0.1);
  core::FunctionalMechanism::PolynomialFitOptions options;
  options.base.epsilon = 1e7;  // essentially noiseless
  options.domain_radius = 1.0;
  options.restarts = 6;
  Rng rng(235);
  const auto fit =
      core::FunctionalMechanism::FitPolynomial(poly, 4.0, options, rng);
  ASSERT_TRUE(fit.ok()) << fit.status();
  EXPECT_NEAR(fit.ValueOrDie().omega[0], -0.5, 0.1);
}

TEST(FitPolynomialTest, NoisyCubicStaysInsideDomain) {
  // Odd-degree noisy polynomials are unbounded below on R; the compact
  // domain keeps the released model finite.
  core::PolynomialObjective poly(2);
  for (unsigned degree = 0; degree <= 3; ++degree) {
    for (const auto& m : core::EnumerateMonomials(2, degree)) {
      poly.AddTerm(m, 0.5);
    }
  }
  core::FunctionalMechanism::PolynomialFitOptions options;
  options.base.epsilon = 0.1;  // heavy noise
  options.domain_radius = 2.0;
  Rng rng(237);
  for (int t = 0; t < 10; ++t) {
    const auto fit =
        core::FunctionalMechanism::FitPolynomial(poly, 10.0, options, rng);
    ASSERT_TRUE(fit.ok());
    EXPECT_LE(fit.ValueOrDie().omega.Norm2(), 2.0 + 1e-9);
    for (double v : fit.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace fm
