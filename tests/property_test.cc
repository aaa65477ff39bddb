// Parameterized property-style sweeps over the paper's invariants:
// Lemma 1 sensitivity bounds, §6 boundedness guarantees, k-fold partition
// laws, Laplace mechanism statistics, and normalization contracts.
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "dp/laplace_mechanism.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"

namespace fm {
namespace {

// ---------------------------------------------------------------------------
// Property: for every dimensionality, the per-tuple polynomial coefficient
// mass of both regression objectives never exceeds Δ/2 (Lemma 1 ⇒ the
// mechanism's Δ is a valid global sensitivity).

class SensitivityProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SensitivityProperty, LinearCoefficientMassBounded) {
  const size_t d = GetParam();
  Rng rng(1000 + d);
  const double delta = core::LinearRegressionSensitivity(d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int trial = 0; trial < 200; ++trial) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.Uniform(0.0, scale);
    const double y = rng.Uniform(-1.0, 1.0);
    // Build the per-tuple objective (y − xᵀω)² and take its coefficient L1.
    core::PolynomialObjective tuple_poly(d);
    tuple_poly.AddTerm(core::Monomial(std::vector<unsigned>(d, 0)), y * y);
    for (size_t j = 0; j < d; ++j) {
      std::vector<unsigned> e(d, 0);
      e[j] = 1;
      tuple_poly.AddTerm(core::Monomial(e), -2.0 * y * x[j]);
    }
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = j; l < d; ++l) {
        std::vector<unsigned> e(d, 0);
        e[j] += 1;
        e[l] += 1;
        const double coef = (j == l ? 1.0 : 2.0) * x[j] * x[l];
        tuple_poly.AddTerm(core::Monomial(e), coef);
      }
    }
    ASSERT_LE(2.0 * tuple_poly.CoefficientL1Norm(), delta + 1e-9)
        << "d=" << d << " trial=" << trial;
  }
}

TEST_P(SensitivityProperty, LogisticCoefficientMassBounded) {
  const size_t d = GetParam();
  Rng rng(2000 + d);
  const double delta = core::LogisticRegressionSensitivity(d);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int trial = 0; trial < 200; ++trial) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.Uniform(0.0, scale);
    const double y = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    double mass = 0.0;  // skip the ω-free constant log2, as the paper does
    for (size_t j = 0; j < d; ++j) mass += std::fabs(0.5 * x[j] - y * x[j]);
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = 0; l < d; ++l) mass += 0.125 * x[j] * x[l];
    }
    ASSERT_LE(2.0 * mass, delta + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensionalities, SensitivityProperty,
                         ::testing::Values(1, 2, 4, 7, 10, 13));

// ---------------------------------------------------------------------------
// Property: across (ε, d), kRegularizeAndTrim always yields a finite model,
// and the report's λ matches the §6.1 rule.

class PostProcessProperty
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(PostProcessProperty, TrimmedFitAlwaysFinite) {
  const auto [epsilon, d] = GetParam();
  Rng rng(3000 + d);
  opt::QuadraticModel q;
  q.m = linalg::Matrix(d, d);
  q.alpha = linalg::Vector(d);
  for (size_t i = 0; i < d; ++i) {
    q.m(i, i) = 1.0;
    q.alpha[i] = rng.Uniform(-1.0, 1.0);
  }
  core::FmOptions options;
  options.epsilon = epsilon;
  options.post_processing = core::PostProcessing::kRegularizeAndTrim;
  const double delta = core::LinearRegressionSensitivity(d);
  for (int trial = 0; trial < 10; ++trial) {
    const auto fit =
        core::FunctionalMechanism::FitQuadratic(q, delta, options, rng);
    ASSERT_TRUE(fit.ok()) << fit.status();
    for (double v : fit.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
    EXPECT_NEAR(fit.ValueOrDie().lambda,
                4.0 * std::sqrt(2.0) * delta / epsilon, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonByDim, PostProcessProperty,
    ::testing::Combine(::testing::Values(0.1, 0.8, 3.2),
                       ::testing::Values(size_t{2}, size_t{5}, size_t{13})));

// ---------------------------------------------------------------------------
// Property: the Laplace mechanism's empirical mean absolute noise matches
// Δ/ε across the paper's entire ε grid.

class LaplaceScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceScaleProperty, MeanAbsoluteNoiseMatchesScale) {
  const double epsilon = GetParam();
  const double delta = 8.0;
  const auto mech = dp::LaplaceMechanism::Create(epsilon, delta);
  ASSERT_TRUE(mech.ok());
  Rng rng(static_cast<uint64_t>(epsilon * 1e6) + 17);
  const int n = 60000;
  double sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    sum_abs += std::fabs(mech.ValueOrDie().Perturb(0.0, rng));
  }
  const double b = delta / epsilon;
  EXPECT_NEAR(sum_abs / n, b, 0.03 * b);
}

INSTANTIATE_TEST_SUITE_P(PaperEpsilonGrid, LaplaceScaleProperty,
                         ::testing::Values(0.1, 0.2, 0.4, 0.8, 1.6, 3.2));

// ---------------------------------------------------------------------------
// Property: k-fold splitting is a partition for any (n, k).

class KFoldProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(KFoldProperty, PartitionLaws) {
  const auto [n, k] = GetParam();
  Rng rng(4000 + n + k);
  const auto splits = data::KFoldSplits(n, k, rng);
  ASSERT_EQ(splits.size(), k);
  std::set<size_t> seen;
  for (const auto& split : splits) {
    EXPECT_EQ(split.train.size() + split.test.size(), n);
    EXPECT_GE(split.test.size(), n / k);
    EXPECT_LE(split.test.size(), n / k + 1);
    for (size_t idx : split.test) {
      ASSERT_LT(idx, n);
      ASSERT_TRUE(seen.insert(idx).second);
    }
  }
  EXPECT_EQ(seen.size(), n);
}

INSTANTIATE_TEST_SUITE_P(
    SizesByFolds, KFoldProperty,
    ::testing::Combine(::testing::Values(size_t{10}, size_t{53}, size_t{200}),
                       ::testing::Values(size_t{2}, size_t{5}, size_t{10})));

// ---------------------------------------------------------------------------
// Property: spectral trimming of any noisy symmetric matrix keeps only
// positive curvature — the reduced objective is bounded below.

class TrimProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(TrimProperty, RetainedSpectrumIsPositive) {
  const size_t d = GetParam();
  Rng rng(5000 + d);
  for (int trial = 0; trial < 20; ++trial) {
    opt::QuadraticModel q;
    q.m = linalg::Matrix(d, d);
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i; j < d; ++j) {
        q.m(i, j) = rng.Uniform(-2.0, 2.0);
        q.m(j, i) = q.m(i, j);
      }
    }
    q.alpha = linalg::Vector(d);
    for (auto& v : q.alpha) v = rng.Uniform(-1.0, 1.0);

    size_t trimmed = 0;
    const auto omega =
        core::FunctionalMechanism::SpectralTrimMinimize(q, &trimmed);
    ASSERT_TRUE(omega.ok());
    const auto eig = linalg::EigenSym(q.m).ValueOrDie();
    size_t non_positive = 0;
    for (size_t i = 0; i < d; ++i) {
      if (!(eig.eigenvalues[i] > 0.0)) ++non_positive;
    }
    EXPECT_EQ(trimmed, non_positive);
    // The returned point is a minimizer within the retained subspace: its
    // gradient must be orthogonal to every retained eigenvector.
    const linalg::Vector grad = q.Gradient(omega.ValueOrDie());
    for (size_t i = 0; i < d; ++i) {
      if (eig.eigenvalues[i] > 0.0) {
        EXPECT_NEAR(Dot(eig.eigenvectors.RowVector(i), grad), 0.0, 1e-8);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, TrimProperty,
                         ::testing::Values(2, 3, 5, 8, 13, 50));

// ---------------------------------------------------------------------------
// Property: FM's fit error decreases (stochastically) as ε grows — the
// privacy/utility trade-off of Figure 6 in miniature.

TEST(EpsilonUtilityProperty, ErrorMonotoneInEpsilonOnAverage) {
  const size_t d = 3, n = 5000;
  Rng data_rng(6000);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = data_rng.Uniform(0.0, scale);
      y += ds.x(i, j);
    }
    ds.y[i] = std::clamp(y - 0.8, -1.0, 1.0);
  }
  const opt::QuadraticModel objective =
      core::ObjectiveAccumulator::Build(ds, core::ObjectiveKind::kLinear)
          .Global();
  const double delta = core::LinearRegressionSensitivity(d);
  const linalg::Vector w_star = objective.Minimize().ValueOrDie();

  auto mean_distance = [&](double epsilon) {
    core::FmOptions options;
    options.epsilon = epsilon;
    Rng rng(static_cast<uint64_t>(epsilon * 1e4) + 61);
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      const auto fit = core::FunctionalMechanism::FitQuadratic(
          objective, delta, options, rng);
      EXPECT_TRUE(fit.ok());
      total += (fit.ValueOrDie().omega - w_star).Norm2();
    }
    return total / trials;
  };

  const double far = mean_distance(0.1);
  const double near = mean_distance(3.2);
  EXPECT_LT(near, far);
}

}  // namespace
}  // namespace fm
