// End-to-end integration: generate census microdata, normalize per §3, run
// every §7 algorithm through the cross-validation harness, and check the
// paper's qualitative orderings (FM close to NoPrivacy; DPME/FP
// worse; everything finite and private budgets accounted).
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/dpme.h"
#include "baselines/filter_priority.h"
#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "eval/cross_validation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace fm {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    us_ = new data::Table(data::CensusGenerator::Generate(
                              data::CensusGenerator::US(), 20000, 12345)
                              .ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete us_;
    us_ = nullptr;
  }

  static const data::Table* us_;
};

const data::Table* IntegrationTest::us_ = nullptr;

TEST_F(IntegrationTest, LinearPipelineOrdersAlgorithmsLikeThePaper) {
  // 5 attributes: at this test's reduced cardinality the d=4 task sits in
  // the same signal-vs-noise regime as the paper's full-scale d=13 runs
  // (what matters is n relative to Δ = 2(d+1)²; see EXPERIMENTS.md).
  const auto ds =
      eval::PrepareTask(*us_, 5, data::TaskKind::kLinear).ValueOrDie();
  eval::CvOptions cv;
  cv.repeats = 2;
  cv.seed = 99;

  baselines::NoPrivacy no_privacy;
  const auto base =
      eval::CrossValidate(no_privacy, ds, data::TaskKind::kLinear, cv)
          .ValueOrDie();

  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  baselines::FmAlgorithm fm(fm_options);
  const auto fm_result =
      eval::CrossValidate(fm, ds, data::TaskKind::kLinear, cv).ValueOrDie();

  baselines::Dpme::Options dpme_options;
  dpme_options.epsilon = 0.8;
  baselines::Dpme dpme(dpme_options);
  const auto dpme_result =
      eval::CrossValidate(dpme, ds, data::TaskKind::kLinear, cv).ValueOrDie();

  // Figure 4a's shape at low dimensionality: FM is almost identical to
  // NoPrivacy (the paper's headline claim), while DPME is merely competitive
  // — the FM/DPME separation only opens up as d grows, which the fig4 bench
  // sweeps. All errors are sane (MSE of a [−1,1] label is bounded by ~4).
  EXPECT_LE(base.mean_error, fm_result.mean_error + 1e-9);
  EXPECT_NEAR(fm_result.mean_error, base.mean_error, 0.05);
  EXPECT_LT(fm_result.mean_error, dpme_result.mean_error + 0.05);
  EXPECT_LT(dpme_result.mean_error, 4.0);
}

TEST_F(IntegrationTest, LogisticPipelineOrdersAlgorithmsLikeThePaper) {
  const auto ds =
      eval::PrepareTask(*us_, 8, data::TaskKind::kLogistic).ValueOrDie();
  eval::CvOptions cv;
  cv.repeats = 2;
  cv.seed = 101;

  const auto algorithms = eval::MakeAlgorithms(0.8, data::TaskKind::kLogistic);
  double err_fm = -1, err_dpme = -1, err_np = -1, err_trunc = -1;
  for (const auto& algorithm : algorithms) {
    const auto result =
        eval::CrossValidate(*algorithm, ds, data::TaskKind::kLogistic, cv);
    ASSERT_TRUE(result.ok()) << algorithm->name() << ": " << result.status();
    const double err = result.ValueOrDie().mean_error;
    EXPECT_GE(err, 0.0);
    EXPECT_LE(err, 1.0);
    if (algorithm->name() == "FM") err_fm = err;
    if (algorithm->name() == "DPME") err_dpme = err;
    if (algorithm->name() == "NoPrivacy") err_np = err;
    if (algorithm->name() == "Truncated") err_trunc = err;
  }
  // Figure 4c/4d orderings: NoPrivacy ≈ Truncated ≤ FM < DPME (slack for
  // small-sample noise).
  EXPECT_NEAR(err_trunc, err_np, 0.05);
  EXPECT_LE(err_np, err_fm + 0.02);
  EXPECT_LT(err_fm, err_dpme + 0.25);
  // FM must actually classify better than a coin flip on this signal.
  EXPECT_LT(err_fm, 0.5);
}

TEST_F(IntegrationTest, EpsilonSweepImprovesFmUtility) {
  const auto ds =
      eval::PrepareTask(*us_, 5, data::TaskKind::kLinear).ValueOrDie();
  eval::CvOptions cv;
  cv.repeats = 3;
  cv.seed = 103;
  auto run = [&](double epsilon) {
    core::FmOptions options;
    options.epsilon = epsilon;
    baselines::FmAlgorithm fm(options);
    return eval::CrossValidate(fm, ds, data::TaskKind::kLinear, cv)
        .ValueOrDie()
        .mean_error;
  };
  const double loose = run(3.2);
  const double tight = run(0.1);
  EXPECT_LE(loose, tight + 1e-9);
}

TEST_F(IntegrationTest, DimensionalitySweepRunsAllSubsets) {
  for (int dims : eval::ParameterGrid::Dimensionalities()) {
    const auto ds = eval::PrepareTask(*us_, dims, data::TaskKind::kLinear);
    ASSERT_TRUE(ds.ok());
    core::FmOptions options;
    options.epsilon = 0.8;
    baselines::FmAlgorithm fm(options);
    eval::CvOptions cv;
    cv.repeats = 1;
    const auto result =
        eval::CrossValidate(fm, ds.ValueOrDie(), data::TaskKind::kLinear, cv);
    ASSERT_TRUE(result.ok()) << "dims=" << dims << ": " << result.status();
    EXPECT_TRUE(std::isfinite(result.ValueOrDie().mean_error));
  }
}

TEST_F(IntegrationTest, SamplingRateSweepKeepsContract) {
  const auto full =
      eval::PrepareTask(*us_, 8, data::TaskKind::kLogistic).ValueOrDie();
  Rng rng(107);
  for (double rate : {0.1, 0.5, 1.0}) {
    const auto sampled = full.Sample(rate, rng);
    EXPECT_TRUE(core::CheckedObjective(sampled,
                                       core::ObjectiveKind::kTruncatedLogistic)
                    .ok());
    EXPECT_EQ(sampled.size(),
              static_cast<size_t>(std::ceil(rate * static_cast<double>(full.size()))));
  }
}

TEST_F(IntegrationTest, PrivateAlgorithmsReportSpentBudget) {
  const auto ds =
      eval::PrepareTask(*us_, 5, data::TaskKind::kLogistic).ValueOrDie();
  Rng rng(109);
  for (const auto& algorithm :
       eval::MakeAlgorithms(0.4, data::TaskKind::kLogistic)) {
    const auto model = algorithm->Train(ds, data::TaskKind::kLogistic, rng);
    ASSERT_TRUE(model.ok()) << algorithm->name();
    if (algorithm->is_private()) {
      EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.4)
          << algorithm->name();
    } else {
      EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.0)
          << algorithm->name();
    }
  }
}

}  // namespace
}  // namespace fm
