#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "eval/cross_validation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"

namespace fm::eval {
namespace {

data::RegressionDataset MakeLinearData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(0.0, scale);
      y += ds.x(i, j);
    }
    ds.y[i] = std::clamp(y - 0.5 + rng.Gaussian(0.0, 0.05), -1.0, 1.0);
  }
  return ds;
}

TEST(MetricsTest, MseOnHandComputedExample) {
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(2, 1);
  ds.x(0, 0) = 1.0;
  ds.x(1, 0) = 0.5;
  ds.y = linalg::Vector{1.0, 0.0};
  const linalg::Vector omega{1.0};
  // Residuals: 0 and 0.5 → MSE = 0.125.
  EXPECT_DOUBLE_EQ(MeanSquaredError(omega, ds), 0.125);
}

TEST(MetricsTest, MisclassificationOnHandComputedExample) {
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(4, 1);
  ds.x(0, 0) = 1.0;   // σ(1) > .5 → predict 1
  ds.x(1, 0) = -1.0;  // predict 0
  ds.x(2, 0) = 1.0;   // predict 1
  ds.x(3, 0) = -1.0;  // predict 0
  ds.y = linalg::Vector{1.0, 0.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(MisclassificationRate(linalg::Vector{1.0}, ds), 0.5);
}

TEST(MetricsTest, TaskErrorDispatches) {
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(1, 1);
  ds.x(0, 0) = 1.0;
  ds.y = linalg::Vector{1.0};
  const linalg::Vector omega{1.0};
  EXPECT_DOUBLE_EQ(TaskError(data::TaskKind::kLinear, omega, ds), 0.0);
  EXPECT_DOUBLE_EQ(TaskError(data::TaskKind::kLogistic, omega, ds), 0.0);
}

TEST(CrossValidationTest, PerfectModelPerfectScore) {
  // y exactly linear in x → NoPrivacy CV error ~ 0.
  Rng rng(41);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(100, 2);
  ds.y = linalg::Vector(100);
  for (size_t i = 0; i < 100; ++i) {
    ds.x(i, 0) = rng.Uniform(0.0, 0.7);
    ds.x(i, 1) = rng.Uniform(0.0, 0.7);
    ds.y[i] = 0.5 * ds.x(i, 0) - 0.25 * ds.x(i, 1);
  }
  baselines::NoPrivacy algo;
  CvOptions options;
  options.repeats = 2;
  const auto result =
      CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result.ValueOrDie().mean_error, 0.0, 1e-12);
  EXPECT_EQ(result.ValueOrDie().evaluations, 10u);  // 5 folds × 2 repeats
  EXPECT_EQ(result.ValueOrDie().failures, 0u);
  EXPECT_GE(result.ValueOrDie().mean_train_seconds, 0.0);
}

TEST(CrossValidationTest, DeterministicGivenSeed) {
  const auto ds = MakeLinearData(200, 3, 43);
  baselines::NoPrivacy algo;
  CvOptions options;
  options.seed = 777;
  const auto a = CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  const auto b = CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.ValueOrDie().mean_error, b.ValueOrDie().mean_error);
  EXPECT_DOUBLE_EQ(a.ValueOrDie().stddev_error, b.ValueOrDie().stddev_error);
}

TEST(CrossValidationTest, BitIdenticalAcrossThreadCounts) {
  // The engine's core guarantee: a noise-consuming private algorithm run
  // through CV produces bit-identical statistics on 1, 2 and 8 threads,
  // because every (repeat, fold) task draws from its own substream.
  const auto ds = MakeLinearData(150, 3, 49);
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  baselines::FmAlgorithm algo(fm_options);

  exec::ThreadPool serial_pool(1);
  CvOptions options;
  options.repeats = 2;
  options.seed = 888;
  options.pool = &serial_pool;
  const auto baseline =
      CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto parallel =
        CrossValidate(algo, ds, data::TaskKind::kLinear, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    // Bit-identical, not approximately equal.
    EXPECT_EQ(parallel.ValueOrDie().mean_error,
              baseline.ValueOrDie().mean_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel.ValueOrDie().stddev_error,
              baseline.ValueOrDie().stddev_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel.ValueOrDie().evaluations,
              baseline.ValueOrDie().evaluations);
    EXPECT_EQ(parallel.ValueOrDie().failures, baseline.ValueOrDie().failures);
  }
}

TEST(CrossValidationTest, ValidatesOptions) {
  const auto ds = MakeLinearData(20, 2, 45);
  baselines::NoPrivacy algo;
  CvOptions options;
  options.folds = 1;
  EXPECT_FALSE(CrossValidate(algo, ds, data::TaskKind::kLinear, options).ok());
  options.folds = 50;  // larger than dataset
  EXPECT_FALSE(CrossValidate(algo, ds, data::TaskKind::kLinear, options).ok());
  options.folds = 5;
  options.repeats = 0;
  EXPECT_FALSE(CrossValidate(algo, ds, data::TaskKind::kLinear, options).ok());
}

class AlwaysFails : public baselines::RegressionAlgorithm {
 public:
  std::string name() const override { return "AlwaysFails"; }
  bool is_private() const override { return false; }
  Result<baselines::TrainedModel> Train(const data::RegressionDataset&,
                                        data::TaskKind, Rng&) const override {
    return Status::Internal("synthetic failure");
  }
};

TEST(CrossValidationTest, AllFailuresSurfaceAsError) {
  const auto ds = MakeLinearData(50, 2, 47);
  AlwaysFails algo;
  CvOptions options;
  options.repeats = 1;
  const auto result =
      CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("synthetic failure"),
            std::string::npos);
}

TEST(ExperimentTest, ParameterGridsMatchTable2) {
  EXPECT_EQ(ParameterGrid::SamplingRates().size(), 10u);
  EXPECT_DOUBLE_EQ(ParameterGrid::SamplingRates().front(), 0.1);
  EXPECT_DOUBLE_EQ(ParameterGrid::SamplingRates().back(), 1.0);
  EXPECT_EQ(ParameterGrid::Dimensionalities(),
            (std::vector<int>{5, 8, 11, 14}));
  EXPECT_EQ(ParameterGrid::PrivacyBudgets(),
            (std::vector<double>{0.1, 0.2, 0.4, 0.8, 1.6, 3.2}));
  EXPECT_DOUBLE_EQ(ParameterGrid::kDefaultEpsilon, 0.8);
  EXPECT_DOUBLE_EQ(ParameterGrid::kDefaultSamplingRate, 0.6);
}

TEST(ExperimentTest, BenchConfigReadsEnvironment) {
  ::setenv("FM_BENCH_SCALE", "0.02", 1);
  ::setenv("FM_BENCH_REPEATS", "7", 1);
  const auto config = BenchConfig::FromEnv();
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config.ValueOrDie().scale, 0.02);
  EXPECT_EQ(config.ValueOrDie().repeats, 7u);
  ::unsetenv("FM_BENCH_SCALE");
  ::unsetenv("FM_BENCH_REPEATS");
}

TEST(ExperimentTest, BenchConfigRejectsRepeatsBelowOne) {
  // −1 must not wrap to 2⁶⁴ − 1 repeats, and 0 must not run no folds.
  for (const char* repeats : {"0", "-1", "-9223372036854775808"}) {
    ::setenv("FM_BENCH_REPEATS", repeats, 1);
    const auto config = BenchConfig::FromEnv();
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument)
        << repeats;
  }
  ::unsetenv("FM_BENCH_REPEATS");
  EXPECT_TRUE(BenchConfig::FromEnv().ok());
}

TEST(CrossValidationTest, RejectsARepeatCountWhoseTaskCountOverflows) {
  const auto ds = MakeLinearData(50, 2, 49);
  baselines::NoPrivacy algo;
  CvOptions options;
  options.repeats = std::numeric_limits<size_t>::max() / options.folds + 1;
  const auto result =
      CrossValidate(algo, ds, data::TaskKind::kLinear, options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  options.repeats = 0;
  EXPECT_EQ(CrossValidate(algo, ds, data::TaskKind::kLinear, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CrossValidationTest, RejectsALabelVectorOfTheWrongLength) {
  // 200 rows and 100 labels: both the direct path (which copies the
  // training rows with Select) and the fold bins would read past the labels.
  Rng rng(51);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(200, 3);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t j = 0; j < 3; ++j) ds.x(i, j) = rng.Uniform(0.0, 0.5);
  }
  ds.y = linalg::Vector(100);
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  const baselines::FmAlgorithm fm(fm_options);
  const baselines::NoPrivacy no_privacy;
  CvOptions options;
  options.repeats = 1;
  for (const bool use_cache : {true, false}) {
    options.use_objective_cache = use_cache;
    EXPECT_EQ(CrossValidate(no_privacy, ds, data::TaskKind::kLogistic, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "cache=" << use_cache;
    EXPECT_EQ(
        CrossValidate(fm, ds, data::TaskKind::kLinear, options).status().code(),
        StatusCode::kInvalidArgument)
        << "cache=" << use_cache;
  }
}

TEST(ExperimentTest, LoadCensusDatasetsScalesCardinality) {
  const auto bundles = LoadCensusDatasets(0.01, 99);
  ASSERT_TRUE(bundles.ok()) << bundles.status();
  ASSERT_EQ(bundles.ValueOrDie().size(), 2u);
  EXPECT_EQ(bundles.ValueOrDie()[0].name, "US");
  EXPECT_EQ(bundles.ValueOrDie()[0].table.num_rows(), 3700u);
  EXPECT_EQ(bundles.ValueOrDie()[1].name, "Brazil");
  EXPECT_EQ(bundles.ValueOrDie()[1].table.num_rows(), 1900u);
  EXPECT_FALSE(LoadCensusDatasets(0.0, 1).ok());
  EXPECT_FALSE(LoadCensusDatasets(1.5, 1).ok());
}

TEST(ExperimentTest, PrepareTaskBuildsContractSatisfyingDatasets) {
  const auto bundles = LoadCensusDatasets(0.01, 5).ValueOrDie();
  for (int dims : {5, 14}) {
    for (auto task : {data::TaskKind::kLinear, data::TaskKind::kLogistic}) {
      const auto ds = PrepareTask(bundles[0].table, dims, task);
      ASSERT_TRUE(ds.ok()) << ds.status();
      EXPECT_TRUE(core::CheckedObjective(ds.ValueOrDie(),
                                         core::ObjectiveKindForTask(task))
                      .ok());
      EXPECT_EQ(ds.ValueOrDie().dim(), static_cast<size_t>(dims - 1));
    }
  }
  EXPECT_FALSE(PrepareTask(bundles[0].table, 9, data::TaskKind::kLinear).ok());
}

TEST(ExperimentTest, MakeAlgorithmsComposition) {
  const auto linear = MakeAlgorithms(0.8, data::TaskKind::kLinear);
  ASSERT_EQ(linear.size(), 4u);  // FM, DPME, FP, NoPrivacy
  EXPECT_EQ(linear[0]->name(), "FM");
  EXPECT_EQ(linear[3]->name(), "NoPrivacy");

  const auto logistic = MakeAlgorithms(0.8, data::TaskKind::kLogistic);
  ASSERT_EQ(logistic.size(), 5u);  // + Truncated
  EXPECT_EQ(logistic[4]->name(), "Truncated");
}

}  // namespace
}  // namespace fm::eval
