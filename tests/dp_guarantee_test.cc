// Differential-privacy guarantee tests: these check the *privacy* side of
// the mechanism, not just its utility.
//
// 1. Release-space sensitivity: for neighbor databases built from realistic
//    census tuples, the L1 distance between the released coefficient
//    vectors (β, α, upper triangle of M) never exceeds the Δ used by the
//    mechanism (Lemma 1 instantiated on the actual release, which is even
//    tighter than the paper's ordered-pair bound).
// 2. Empirical ε-indistinguishability: on a tiny database pair differing in
//    one tuple, the output distribution of the full mechanism (binned)
//    satisfies the e^ε ratio bound up to sampling slack.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "data/normalizer.h"
#include "eval/experiment.h"

namespace fm {
namespace {

// L1 distance between the released coefficients of two quadratic objectives:
// the constant, every linear coefficient, and the upper triangle (including
// the diagonal) of M — exactly the values Algorithm 1 perturbs.
double ReleaseSpaceL1(const opt::QuadraticModel& a,
                      const opt::QuadraticModel& b) {
  double total = std::fabs(a.beta - b.beta);
  for (size_t j = 0; j < a.alpha.size(); ++j) {
    total += std::fabs(a.alpha[j] - b.alpha[j]);
  }
  for (size_t j = 0; j < a.m.rows(); ++j) {
    for (size_t l = j; l < a.m.cols(); ++l) {
      total += std::fabs(a.m(j, l) - b.m(j, l));
    }
  }
  return total;
}

// The §4.2 objective of (x_i, y_i), or the §5.3 surrogate, as every fit
// builds it.
opt::QuadraticModel Objective(const data::RegressionDataset& ds,
                              core::ObjectiveKind kind) {
  return core::ObjectiveAccumulator::Build(ds, kind).Global();
}

opt::QuadraticModel LinearObjective(const linalg::Matrix& x,
                                    const linalg::Vector& y) {
  data::RegressionDataset ds;
  ds.x = x;
  ds.y = y;
  return Objective(ds, core::ObjectiveKind::kLinear);
}

class ReleaseSensitivityTest : public ::testing::TestWithParam<int> {};

TEST_P(ReleaseSensitivityTest, LinearNeighborDistanceBoundedByDelta) {
  const int dims = GetParam();
  const auto table = data::CensusGenerator::Generate(
                         data::CensusGenerator::US(), 500, 31)
                         .ValueOrDie();
  const auto ds =
      eval::PrepareTask(table, dims, data::TaskKind::kLinear).ValueOrDie();
  const double delta = core::LinearRegressionSensitivity(ds.dim());

  Rng rng(33);
  for (int trial = 0; trial < 50; ++trial) {
    // Neighbor: replace one row with another row of the dataset.
    const size_t victim = static_cast<size_t>(rng.UniformInt(ds.size()));
    const size_t replacement = static_cast<size_t>(rng.UniformInt(ds.size()));
    data::RegressionDataset neighbor = ds;
    for (size_t j = 0; j < ds.dim(); ++j) {
      neighbor.x(victim, j) = ds.x(replacement, j);
    }
    neighbor.y[victim] = ds.y[replacement];

    const auto fa = Objective(ds, core::ObjectiveKind::kLinear);
    const auto fb = Objective(neighbor, core::ObjectiveKind::kLinear);
    ASSERT_LE(ReleaseSpaceL1(fa, fb), delta + 1e-9) << "dims=" << dims;
  }
}

TEST_P(ReleaseSensitivityTest, LogisticNeighborDistanceBoundedByDelta) {
  const int dims = GetParam();
  const auto table = data::CensusGenerator::Generate(
                         data::CensusGenerator::Brazil(), 500, 35)
                         .ValueOrDie();
  const auto ds =
      eval::PrepareTask(table, dims, data::TaskKind::kLogistic).ValueOrDie();
  const double delta = core::LogisticRegressionSensitivity(ds.dim());

  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t victim = static_cast<size_t>(rng.UniformInt(ds.size()));
    data::RegressionDataset neighbor = ds;
    // Worst-case style replacement: extreme tuple within the §3 contract.
    const double scale = 1.0 / std::sqrt(static_cast<double>(ds.dim()));
    for (size_t j = 0; j < ds.dim(); ++j) {
      neighbor.x(victim, j) = rng.Bernoulli(0.5) ? scale : 0.0;
    }
    neighbor.y[victim] = rng.Bernoulli(0.5) ? 1.0 : 0.0;

    const auto fa = Objective(ds, core::ObjectiveKind::kTruncatedLogistic);
    const auto fb =
        Objective(neighbor, core::ObjectiveKind::kTruncatedLogistic);
    ASSERT_LE(ReleaseSpaceL1(fa, fb), delta + 1e-9) << "dims=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperDims, ReleaseSensitivityTest,
                         ::testing::Values(5, 8, 11, 14));

TEST(EmpiricalDpTest, OutputDistributionSatisfiesEpsilonRatio) {
  // d = 1 database pair differing in the last tuple (the paper's worked
  // example vs a flipped record). Bin the released ω̄ and compare the two
  // histograms; every sufficiently-populated bin must satisfy the e^ε bound
  // within sampling slack. This catches gross calibration bugs (e.g. noise
  // scaled by Δ/2 instead of Δ).
  linalg::Matrix x1(3, 1), x2(3, 1);
  x1(0, 0) = 1.0;
  x1(1, 0) = 0.9;
  x1(2, 0) = -0.5;
  x2 = x1;
  x2(2, 0) = 0.8;  // neighbor: last tuple replaced
  linalg::Vector y1{0.4, 0.3, -1.0};
  linalg::Vector y2{0.4, 0.3, 0.9};

  const auto f1 = LinearObjective(x1, y1);
  const auto f2 = LinearObjective(x2, y2);
  const double delta = core::LinearRegressionSensitivity(1);
  const double epsilon = 1.0;

  core::FmOptions options;
  options.epsilon = epsilon;
  options.post_processing = core::PostProcessing::kResample;

  constexpr int kTrials = 40000;
  constexpr int kBins = 8;
  const double lo = -2.0, hi = 2.0;
  std::vector<double> h1(kBins + 1, 0.0), h2(kBins + 1, 0.0);
  Rng rng1(41), rng2(43);
  for (int t = 0; t < kTrials; ++t) {
    const auto r1 =
        core::FunctionalMechanism::FitQuadratic(f1, delta, options, rng1);
    const auto r2 =
        core::FunctionalMechanism::FitQuadratic(f2, delta, options, rng2);
    ASSERT_TRUE(r1.ok() && r2.ok());
    auto bin = [&](double w) {
      if (w < lo || w >= hi) return kBins;  // overflow bucket
      return static_cast<int>((w - lo) / (hi - lo) * kBins);
    };
    h1[bin(r1.ValueOrDie().omega[0])] += 1.0;
    h2[bin(r2.ValueOrDie().omega[0])] += 1.0;
  }
  // Resampling is (2ε)-DP (Lemma 5); allow generous sampling slack on top.
  const double bound = std::exp(2.0 * epsilon) * 1.35;
  for (int b = 0; b <= kBins; ++b) {
    if (h1[b] < 200.0 || h2[b] < 200.0) continue;  // too noisy to compare
    const double ratio = h1[b] / h2[b];
    EXPECT_LT(ratio, bound) << "bin " << b;
    EXPECT_GT(ratio, 1.0 / bound) << "bin " << b;
  }
}

TEST(EmpiricalDpTest, PerturbQuadraticNoiseIsLaplaceDistributed) {
  // Statistical smoke test of Algorithm 1 lines 2–6: the noise added by
  // PerturbQuadratic to every released coefficient (β, α entries, M upper
  // triangle) must be Laplace(b = Δ/ε): empirical mean ≈ 0, mean absolute
  // deviation ≈ b, variance ≈ 2b², and M must stay symmetric (the upper
  // triangle is perturbed once and mirrored, §6.1).
  const auto objective = [] {
    opt::QuadraticModel q;
    q.m = {{1.5, 0.25}, {0.25, 3.0}};
    q.alpha = {0.5, -1.0};
    q.beta = 2.0;
    return q;
  }();
  const double delta = 6.0, epsilon = 1.2;
  const double b = delta / epsilon;

  Rng rng(53);
  constexpr int kTrials = 50000;
  // Track the three coefficient kinds separately: β, α[0], M(0,1).
  double sum[3] = {0, 0, 0}, sum_abs[3] = {0, 0, 0}, sum_sq[3] = {0, 0, 0};
  for (int t = 0; t < kTrials; ++t) {
    const auto noisy =
        core::FunctionalMechanism::PerturbQuadratic(objective, delta, epsilon,
                                                    rng)
            .ValueOrDie();
    ASSERT_DOUBLE_EQ(noisy.m(0, 1), noisy.m(1, 0)) << "M must stay symmetric";
    const double noise[3] = {noisy.beta - objective.beta,
                             noisy.alpha[0] - objective.alpha[0],
                             noisy.m(0, 1) - objective.m(0, 1)};
    for (int k = 0; k < 3; ++k) {
      sum[k] += noise[k];
      sum_abs[k] += std::fabs(noise[k]);
      sum_sq[k] += noise[k] * noise[k];
    }
  }
  for (int k = 0; k < 3; ++k) {
    const double mean = sum[k] / kTrials;
    const double mad = sum_abs[k] / kTrials;
    const double var = sum_sq[k] / kTrials - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05 * b) << "coefficient " << k;
    EXPECT_NEAR(mad, b, 0.03 * b) << "coefficient " << k;
    EXPECT_NEAR(var, 2.0 * b * b, 0.15 * b * b) << "coefficient " << k;
  }
}

TEST(EmpiricalDpTest, ResamplingDoublesReportedEpsilonSpent) {
  // Lemma 5: the repeat-until-bounded procedure is (2ε)-DP even when the
  // first draw is accepted, so kResample must always report 2ε while every
  // other post-processing mode reports ε.
  linalg::Matrix x(4, 2);
  x(0, 0) = 0.9;
  x(1, 1) = 0.8;
  x(2, 0) = -0.4;
  x(3, 1) = 0.5;
  linalg::Vector y{0.5, -0.2, 0.7, 0.1};
  const auto f = LinearObjective(x, y);
  const double delta = core::LinearRegressionSensitivity(2);

  for (double epsilon : {0.5, 0.8, 3.2}) {
    core::FmOptions options;
    options.epsilon = epsilon;

    options.post_processing = core::PostProcessing::kResample;
    Rng rng(59);
    const auto resampled =
        core::FunctionalMechanism::FitQuadratic(f, delta, options, rng);
    ASSERT_TRUE(resampled.ok());
    EXPECT_DOUBLE_EQ(resampled.ValueOrDie().epsilon_spent, 2.0 * epsilon);
    EXPECT_GE(resampled.ValueOrDie().attempts, 1);

    for (auto mode : {core::PostProcessing::kAdaptive,
                      core::PostProcessing::kRegularizeAndTrim}) {
      options.post_processing = mode;
      Rng mode_rng(61);
      const auto fit =
          core::FunctionalMechanism::FitQuadratic(f, delta, options, mode_rng);
      ASSERT_TRUE(fit.ok());
      EXPECT_DOUBLE_EQ(fit.ValueOrDie().epsilon_spent, epsilon);
    }
  }
}

TEST(EmpiricalDpTest, NoiseActuallyCalibratedToDeltaOverEpsilon) {
  // The released β is the true β plus Lap(Δ/ε): its mean absolute deviation
  // must match Δ/ε (would fail if ε or Δ were applied per-coefficient
  // incorrectly, e.g. split across coefficients).
  const auto objective = [] {
    opt::QuadraticModel q;
    q.m = {{2.0}};
    q.alpha = {1.0};
    q.beta = 4.0;
    return q;
  }();
  const double delta = 8.0, epsilon = 0.5;
  Rng rng(47);
  double sum_abs = 0.0;
  const int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    const auto noisy = core::FunctionalMechanism::PerturbQuadratic(
        objective, delta, epsilon, rng);
    sum_abs += std::fabs(noisy.ValueOrDie().beta - 4.0);
  }
  const double b = delta / epsilon;
  EXPECT_NEAR(sum_abs / kTrials, b, 0.03 * b);
}

}  // namespace
}  // namespace fm
