#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "core/taylor.h"
#include "opt/logistic_loss.h"

namespace fm::core {
namespace {

// The objective of `kind` over the tuples (x_i, y_i), summed the one way the
// library sums an objective.
opt::QuadraticModel BuildObjective(const linalg::Matrix& x,
                                   const linalg::Vector& y,
                                   ObjectiveKind kind) {
  data::RegressionDataset ds;
  ds.x = x;
  ds.y = y;
  return ObjectiveAccumulator::Build(ds, kind).Global();
}

opt::QuadraticModel TruncatedObjective(const linalg::Matrix& x,
                                       const linalg::Vector& y) {
  return BuildObjective(x, y, ObjectiveKind::kTruncatedLogistic);
}

TEST(TaylorTest, DerivativeConstantsMatchPaper) {
  EXPECT_NEAR(LogisticF1Value0(), std::log(2.0), 1e-15);
  EXPECT_DOUBLE_EQ(LogisticF1Derivative0(), 0.5);
  EXPECT_DOUBLE_EQ(LogisticF1SecondDerivative0(), 0.25);
}

TEST(TaylorTest, ThirdDerivativeMatchesFiniteDifference) {
  for (double z : {-3.0, -1.0, 0.0, 0.5, 2.0}) {
    const double h = 1e-4;
    // Second derivative of f₁ is σ(1−σ); differentiate numerically.
    auto f2 = [](double t) {
      const double s = opt::Sigmoid(t);
      return s * (1.0 - s);
    };
    const double numeric = (f2(z + h) - f2(z - h)) / (2.0 * h);
    EXPECT_NEAR(LogisticF1ThirdDerivative(z), numeric, 1e-6) << z;
  }
}

TEST(TaylorTest, ThirdDerivativeExtremaMatchPaper) {
  // §5.2: min f₁‴ = (e − e²)/(1+e)³ and max = (e² − e)/(1+e)³.
  const double e = std::exp(1.0);
  const double claimed_max = (e * e - e) / std::pow(1.0 + e, 3.0);
  double min_seen = 1.0, max_seen = -1.0;
  for (double z = -10.0; z <= 10.0; z += 1e-3) {
    const double v = LogisticF1ThirdDerivative(z);
    min_seen = std::min(min_seen, v);
    max_seen = std::max(max_seen, v);
  }
  // The extrema are attained at z = ∓ln(2+√3); the paper quotes the values
  // at z = ∓1, which bound the series remainder on [z₀−1, z₀+1].
  EXPECT_NEAR(LogisticF1ThirdDerivative(-1.0), claimed_max, 1e-12);
  EXPECT_NEAR(LogisticF1ThirdDerivative(1.0), -claimed_max, 1e-12);
  EXPECT_GE(max_seen, claimed_max - 1e-9);
  EXPECT_LE(std::fabs(min_seen + max_seen), 1e-6);  // odd function
}

TEST(TaylorTest, ErrorBoundIsSmallConstant) {
  // §5.2: (e² − e)/(6(1+e)³) ≈ 0.015.
  EXPECT_NEAR(LogisticTaylorErrorBound(), 0.015, 5e-4);
}

TEST(TaylorTest, TruncatedObjectiveMatchesSeriesOnAxis) {
  // For a single tuple, f̂(ω) must equal log2 + ½z + ⅛z² − yz at z = xᵀω.
  linalg::Matrix x(1, 2);
  x(0, 0) = 0.6;
  x(0, 1) = -0.3;
  linalg::Vector y(1);
  y[0] = 1.0;
  const opt::QuadraticModel q = TruncatedObjective(x, y);
  Rng rng(95);
  for (int trial = 0; trial < 20; ++trial) {
    const linalg::Vector w = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
    const double z = x(0, 0) * w[0] + x(0, 1) * w[1];
    const double expected =
        std::log(2.0) + 0.5 * z + 0.125 * z * z - y[0] * z;
    EXPECT_NEAR(q.Evaluate(w), expected, 1e-12);
  }
}

TEST(TaylorTest, AverageTruncationErrorWithinLemma4Bound) {
  // Lemma 3 + 4: (f̃_D(ω̂) − f̃_D(ω̃))/n ≤ 2·max|f₁‴|/6 within the unit
  // interval of the expansion. We check the pointwise surrogate gap, which
  // is what the lemma actually bounds, for ‖x‖≤1 and |xᵀω| ≤ 1.
  Rng rng(97);
  const size_t n = 200, d = 3;
  linalg::Matrix x(n, d);
  linalg::Vector y(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.Uniform(0.0, scale);
    y[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  const opt::QuadraticModel truncated = TruncatedObjective(x, y);
  const opt::LogisticObjective exact(x, y);

  // |xᵀω| ≤ ‖x‖‖ω‖ ≤ 1 when ‖ω‖ ≤ 1: sample such ω.
  const double bound = LogisticTaylorErrorBound();
  for (int trial = 0; trial < 50; ++trial) {
    linalg::Vector w(d);
    for (auto& v : w) v = rng.Uniform(-1.0, 1.0);
    const double norm = w.Norm2();
    if (norm > 1.0) w /= norm;
    const double gap =
        std::fabs(truncated.Evaluate(w) - exact.Value(w)) /
        static_cast<double>(n);
    // The remainder for |z| ≤ 1 is ≤ max|f₁‴|·|z|³/6 ≤ 6·bound; use the
    // looser Lemma-4 interval width.
    EXPECT_LE(gap, 6.0 * bound) << "trial " << trial;
  }
}

TEST(TaylorTest, Figure3ShapeTruncationStaysClose) {
  // The paper's Figure 3 dataset: (x,y) ∈ {(−0.5,1), (0,0), (1,1)}, d = 1.
  linalg::Matrix x(3, 1);
  x(0, 0) = -0.5;
  x(1, 0) = 0.0;
  x(2, 0) = 1.0;
  linalg::Vector y{1.0, 0.0, 1.0};
  const opt::QuadraticModel truncated = TruncatedObjective(x, y);
  const opt::LogisticObjective exact(x, y);
  for (double w = 0.0; w <= 2.0; w += 0.25) {
    const linalg::Vector omega{w};
    EXPECT_NEAR(truncated.Evaluate(omega), exact.Value(omega), 0.25)
        << "w=" << w;
  }
}

TEST(TaylorTest, LinearObjectiveMatchesSumOfSquares) {
  Rng rng(99);
  const size_t n = 100, d = 4;
  linalg::Matrix x(n, d);
  linalg::Vector y(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) x(i, j) = rng.Uniform(0.0, scale);
    y[i] = rng.Uniform(-1.0, 1.0);
  }
  const opt::QuadraticModel q = BuildObjective(x, y, ObjectiveKind::kLinear);
  for (int trial = 0; trial < 10; ++trial) {
    linalg::Vector w(d);
    for (auto& v : w) v = rng.Uniform(-1.0, 1.0);
    double direct = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double pred = 0.0;
      for (size_t j = 0; j < d; ++j) pred += x(i, j) * w[j];
      direct += (y[i] - pred) * (y[i] - pred);
    }
    EXPECT_NEAR(q.Evaluate(w), direct, 1e-9);
  }
}

TEST(ChebyshevTest, ApproximatesF1WithinReportedError) {
  for (double radius : {0.5, 1.0, 2.0, 4.0}) {
    const auto coefficients = FitChebyshevLogistic(radius);
    EXPECT_GT(coefficients.max_error, 0.0);
    // Grid check against the true function.
    for (double z = -radius; z <= radius; z += radius / 50.0) {
      const double approx = coefficients.a0 + coefficients.a1 * z +
                            coefficients.a2 * z * z;
      EXPECT_LE(std::fabs(opt::Log1pExp(z) - approx),
                coefficients.max_error + 1e-9)
          << "radius=" << radius << " z=" << z;
    }
  }
}

TEST(ChebyshevTest, BeatsTaylorMaxErrorOnWideInterval) {
  // The Maclaurin truncation is tangent at 0; a Chebyshev fit spreads the
  // error, so its max error on a symmetric interval must be smaller.
  const double radius = 2.0;
  const auto cheb = FitChebyshevLogistic(radius);
  double taylor_max = 0.0;
  for (double z = -radius; z <= radius; z += 0.001) {
    const double taylor = LogisticF1Value0() + LogisticF1Derivative0() * z +
                          LogisticF1SecondDerivative0() / 2.0 * z * z;
    taylor_max = std::max(taylor_max, std::fabs(opt::Log1pExp(z) - taylor));
  }
  EXPECT_LT(cheb.max_error, taylor_max);
}

TEST(ChebyshevTest, CoefficientsNearTaylorForSmallRadius) {
  // As radius → 0 the Chebyshev fit converges to the Maclaurin expansion.
  const auto cheb = FitChebyshevLogistic(0.05);
  EXPECT_NEAR(cheb.a0, LogisticF1Value0(), 1e-3);
  EXPECT_NEAR(cheb.a1, LogisticF1Derivative0(), 1e-3);
  EXPECT_NEAR(cheb.a2, LogisticF1SecondDerivative0() / 2.0, 1e-2);
}

TEST(ChebyshevTest, ObjectiveMatchesPointwiseFormula) {
  const auto cheb = FitChebyshevLogistic(1.0);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(1, 2);
  ds.x(0, 0) = 0.4;
  ds.x(0, 1) = -0.2;
  ds.y = linalg::Vector{1.0};
  const opt::QuadraticModel q = BuildChebyshevLogisticObjective(ds, cheb);
  Rng rng(103);
  for (int trial = 0; trial < 20; ++trial) {
    const linalg::Vector w = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
    const double z = ds.x(0, 0) * w[0] + ds.x(0, 1) * w[1];
    const double expected =
        cheb.a0 + cheb.a1 * z + cheb.a2 * z * z - ds.y[0] * z;
    EXPECT_NEAR(q.Evaluate(w), expected, 1e-12);
  }
}

TEST(ChebyshevTest, SensitivityBoundHoldsEmpirically) {
  // Per-tuple coefficient mass ≤ Δ/2 under the §3 contract, mirroring the
  // §5.3 derivation with the Chebyshev coefficients.
  const auto cheb = FitChebyshevLogistic(1.0);
  const size_t d = 6;
  const double delta = ChebyshevLogisticSensitivity(d, cheb);
  Rng rng(107);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (int trial = 0; trial < 300; ++trial) {
    linalg::Vector x(d);
    for (auto& v : x) v = rng.Uniform(0.0, scale);
    const double y = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    double mass = 0.0;
    for (size_t j = 0; j < d; ++j) {
      mass += std::fabs(cheb.a1 * x[j] - y * x[j]);
    }
    for (size_t j = 0; j < d; ++j) {
      for (size_t l = 0; l < d; ++l) {
        mass += std::fabs(cheb.a2) * x[j] * x[l];
      }
    }
    ASSERT_LE(2.0 * mass, delta + 1e-9);
  }
}

TEST(TaylorTest, TruncatedMinimizerBeatsNaivePoint) {
  // Sanity on the surrogate: its minimizer should achieve lower exact loss
  // than the origin on signal-bearing data.
  Rng rng(101);
  const size_t n = 2000;
  linalg::Matrix x(n, 1);
  linalg::Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1.0, 1.0);
    y[i] = rng.Bernoulli(opt::Sigmoid(3.0 * x(i, 0))) ? 1.0 : 0.0;
  }
  const opt::QuadraticModel truncated = TruncatedObjective(x, y);
  const auto w = truncated.Minimize();
  ASSERT_TRUE(w.ok());
  const opt::LogisticObjective exact(x, y);
  EXPECT_LT(exact.Value(w.ValueOrDie()), exact.Value(linalg::Vector(1)));
}

}  // namespace
}  // namespace fm::core
