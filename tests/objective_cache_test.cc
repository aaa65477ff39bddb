// Equivalence tests for the exact objective sum and the fold-objective
// cache: core::RoundFixedPoint rounds correctly (ties to even); a training
// objective derived from an ObjectiveAccumulator's global sum (global minus
// test slice) is bitwise equal to a fresh build over the materialized
// training split and within 1 ulp per coefficient of a Neumaier-compensated
// reference; and CrossValidate produces the same statistics and stays
// byte-identical across thread counts with the cache enabled.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "core/objective_accumulator.h"
#include "core/taylor.h"
#include "eval/cross_validation.h"
#include "exec/thread_pool.h"
#include "neumaier_reference.h"
#include "opt/logistic_loss.h"

namespace fm {
namespace {

// Max per-coefficient ulp distance between two models of equal shape.
uint64_t MaxUlpDistance(const opt::QuadraticModel& a,
                        const opt::QuadraticModel& b) {
  EXPECT_EQ(a.dim(), b.dim());
  uint64_t worst = UlpDistance(a.beta, b.beta);
  for (size_t i = 0; i < a.dim(); ++i) {
    worst = std::max(worst, UlpDistance(a.alpha[i], b.alpha[i]));
    for (size_t j = 0; j < a.dim(); ++j) {
      worst = std::max(worst, UlpDistance(a.m(i, j), b.m(i, j)));
    }
  }
  return worst;
}

data::RegressionDataset MakeDataset(size_t n, size_t d, bool binary,
                                    uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(-scale, scale);
      z += (j % 2 ? -3.0 : 3.0) * ds.x(i, j);
    }
    ds.y[i] = binary ? (rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0)
                     : std::clamp(z + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
  }
  return ds;
}

opt::QuadraticModel DirectObjective(const data::RegressionDataset& ds,
                                    core::ObjectiveKind kind) {
  return kind == core::ObjectiveKind::kLinear
             ? core::BuildLinearObjective(ds.x, ds.y)
             : core::BuildTruncatedLogisticObjective(ds.x, ds.y);
}

TEST(QuadraticModelArithmeticTest, AddSubtractScale) {
  opt::QuadraticModel a;
  a.m = {{1.0, 2.0}, {2.0, 5.0}};
  a.alpha = {3.0, -1.0};
  a.beta = 4.0;
  opt::QuadraticModel b;
  b.m = {{0.5, -1.0}, {-1.0, 2.0}};
  b.alpha = {-1.0, 1.0};
  b.beta = 1.5;

  opt::QuadraticModel sum = a;
  sum += b;
  EXPECT_DOUBLE_EQ(sum.m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(sum.m(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(sum.alpha[0], 2.0);
  EXPECT_DOUBLE_EQ(sum.beta, 5.5);

  sum -= b;  // back to a
  EXPECT_DOUBLE_EQ(sum.m(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(sum.alpha[1], -1.0);
  EXPECT_DOUBLE_EQ(sum.beta, 4.0);

  sum.Scale(2.0);
  EXPECT_DOUBLE_EQ(sum.m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(sum.alpha[0], 6.0);
  EXPECT_DOUBLE_EQ(sum.beta, 8.0);
}

TEST(ObjectiveAccumulatorTest, GlobalMatchesDirectBuild) {
  for (const auto kind : {core::ObjectiveKind::kLinear,
                          core::ObjectiveKind::kTruncatedLogistic}) {
    const bool binary = kind == core::ObjectiveKind::kTruncatedLogistic;
    const auto ds = MakeDataset(2500, 6, binary, 101);
    const auto acc = core::ObjectiveAccumulator::Build(ds, kind);
    EXPECT_EQ(acc.size(), 2500u);
    EXPECT_EQ(acc.dim(), 6u);

    // The compensated global sum agrees with the plain left-to-right Build*
    // construction up to its own accumulated rounding (well under 1e-9 for
    // these magnitudes); exactness is checked fold-wise below.
    const auto direct = DirectObjective(ds, kind);
    const auto global = acc.Global();
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(global.alpha[i], direct.alpha[i], 1e-9);
      for (size_t j = 0; j < 6; ++j) {
        EXPECT_NEAR(global.m(i, j), direct.m(i, j), 1e-9);
      }
    }
    EXPECT_NEAR(global.beta, direct.beta, 1e-9);
  }
}

TEST(ObjectiveAccumulatorTest, TrainObjectiveForFoldMatchesFreshBuildBitwise) {
  // For random datasets and random fold partitions, global-minus-test-slice
  // is exact, so it must equal a fresh build over the materialized training
  // split bit for bit, and land within 1 ulp per coefficient of the
  // Neumaier-compensated reference sum.
  for (const auto kind : {core::ObjectiveKind::kLinear,
                          core::ObjectiveKind::kTruncatedLogistic}) {
    const bool binary = kind == core::ObjectiveKind::kTruncatedLogistic;
    for (uint64_t seed : {7u, 8u, 9u}) {
      const auto ds = MakeDataset(2000, 5, binary, seed);
      const auto acc = core::ObjectiveAccumulator::Build(ds, kind);
      Rng fold_rng(seed * 31);
      const auto splits = data::KFoldSplits(ds.size(), 5, fold_rng);
      for (const auto& split : splits) {
        const auto cached = acc.TrainObjectiveForFold(split.test);
        const auto train = ds.Select(split.train);
        EXPECT_EQ(MaxUlpDistance(
                      cached, core::ObjectiveAccumulator::Build(train, kind)
                                  .Global()),
                  0u);
        EXPECT_LE(MaxUlpDistance(cached, NeumaierObjective(train, kind)), 1u);

        // And against the plain uncompensated Build* on the split, within
        // ordinary summation-error tolerance.
        const auto direct = DirectObjective(train, kind);
        EXPECT_LE(static_cast<double>(MaxUlpDistance(cached, direct)) *
                      std::numeric_limits<double>::epsilon(),
                  1e-10);
      }
    }
  }
}

TEST(ObjectiveAccumulatorTest, SliceOfEverythingEqualsGlobal) {
  const auto ds = MakeDataset(2900, 4, false, 55);
  const auto acc =
      core::ObjectiveAccumulator::Build(ds, core::ObjectiveKind::kLinear);
  std::vector<size_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(MaxUlpDistance(acc.SliceObjective(all), acc.Global()), 0u);

  // Global minus everything is the empty objective.
  const auto empty = acc.TrainObjectiveForFold(all);
  EXPECT_EQ(empty.beta, 0.0);
  for (size_t i = 0; i < acc.dim(); ++i) EXPECT_EQ(empty.alpha[i], 0.0);
}

TEST(ObjectiveAccumulatorTest, BuildIsBitIdenticalAcrossThreadCounts) {
  const auto ds = MakeDataset(3000, 5, false, 77);
  exec::ThreadPool serial(1);
  const auto baseline = core::ObjectiveAccumulator::Build(
      ds, core::ObjectiveKind::kLinear, &serial);
  Rng fold_rng(123);
  const auto splits = data::KFoldSplits(ds.size(), 4, fold_rng);
  const auto baseline_fold = baseline.TrainObjectiveForFold(splits[0].test);
  for (size_t threads : {2u, 5u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto acc = core::ObjectiveAccumulator::Build(
        ds, core::ObjectiveKind::kLinear, &pool);
    EXPECT_EQ(MaxUlpDistance(acc.Global(), baseline.Global()), 0u)
        << "threads=" << threads;
    EXPECT_EQ(MaxUlpDistance(acc.TrainObjectiveForFold(splits[0].test),
                             baseline_fold),
              0u)
        << "threads=" << threads;
  }
}

// Build checks the §3 contract row by row inside its parallel pass, so one
// violating row in the last chunk still aborts the process, as does a
// label vector that is one short.
TEST(ObjectiveAccumulatorDeathTest, BuildAbortsOnAContractViolation) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  exec::ThreadPool pool(4);
  auto ds = MakeDataset(3 * core::kObjectiveShardRows + 10, 5, false, 79);
  ds.y[ds.size() - 1] = 2.0;  // a linear-task label outside [−1, 1]
  EXPECT_DEATH(core::ObjectiveAccumulator::Build(
                   ds, core::ObjectiveKind::kLinear, &pool),
               "FM_CHECK failed");

  auto short_labels = MakeDataset(10, 5, false, 79);
  short_labels.y = linalg::Vector(9);
  EXPECT_DEATH(core::ObjectiveAccumulator::Build(
                   short_labels, core::ObjectiveKind::kLinear, &pool),
               "FM_CHECK failed");
}

// units = (2⁵³ + odd) · 2^shift ± small: the correctly rounded double of
// units · 2⁻⁸², computed independently of RoundFixedPoint.
TEST(ExactObjectiveSumTest, RoundFixedPointRoundsToNearestTiesToEven) {
  using core::Int128;
  const auto round = [](Int128 units) { return core::RoundFixedPoint(units); };
  const Int128 p53 = Int128{1} << 53;
  // Exact below 2⁵³ units, including zero (as +0.0).
  EXPECT_EQ(round(0), 0.0);
  EXPECT_FALSE(std::signbit(round(0)));
  EXPECT_EQ(round(1), std::ldexp(1.0, -82));
  EXPECT_EQ(round(p53 - 1), std::ldexp(9007199254740991.0, -82));
  // Ties between two doubles go to the even significand.
  EXPECT_EQ(round(p53 + 1), std::ldexp(1.0, 53 - 82));
  EXPECT_EQ(round(p53 + 3), std::ldexp(9007199254740996.0, -82));
  EXPECT_EQ(round(-(p53 + 1)), -std::ldexp(1.0, 53 - 82));
  EXPECT_EQ(round(-(p53 + 3)), -std::ldexp(9007199254740996.0, -82));
  // One unit off a tie decides it, however far below the significand.
  const Int128 tie = (p53 + 1) << 20;
  EXPECT_EQ(round(tie - 1), std::ldexp(1.0, 73 - 82));
  EXPECT_EQ(round(tie + 1), std::ldexp(9007199254740994.0, 20 - 82));
  // Rounding up can carry into the next binade.
  EXPECT_EQ(round((p53 << 1) - 1), std::ldexp(1.0, 54 - 82));
  // The top of the range, and its most negative value.
  const Int128 p126 = Int128{1} << 126;
  EXPECT_EQ(round(p126 + (Int128{1} << 73)), std::ldexp(1.0, 126 - 82));
  EXPECT_EQ(round(p126 + (Int128{3} << 73)),
            std::ldexp(4503599627370498.0, 74 - 82));
  const Int128 most_negative = -(p126 - 1) - p126 - 1;
  EXPECT_EQ(round(most_negative), -std::ldexp(1.0, 127 - 82));
}

TEST(ExactObjectiveSumTest, SubtractingTuplesUndoesAddingThemBitwise) {
  // Add 2,048 random d=50 tuples, subtract the odd ones: the sum must equal
  // the even tuples' sum bit for bit, and round within 1 ulp of the
  // Neumaier reference on the even tuples.
  const auto ds = MakeDataset(2048, 50, false, 61);
  std::vector<const double*> xs(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) xs[i] = ds.x.Row(i);
  std::vector<const double*> odd_xs, even_xs;
  std::vector<double> odd_ys, even_ys;
  std::vector<size_t> even_rows;
  for (size_t i = 0; i < ds.size(); ++i) {
    (i % 2 ? odd_xs : even_xs).push_back(xs[i]);
    (i % 2 ? odd_ys : even_ys).push_back(ds.y[i]);
    if (i % 2 == 0) even_rows.push_back(i);
  }
  const auto kind = core::ObjectiveKind::kLinear;
  core::ExactObjectiveSum all(50);
  all.AddTuples(kind, xs.data(), ds.y.raw(), ds.size());
  all.AddTuples(kind, odd_xs.data(), odd_ys.data(), odd_xs.size(),
                /*subtract=*/true);
  core::ExactObjectiveSum even(50);
  even.AddTuples(kind, even_xs.data(), even_ys.data(), even_xs.size());
  EXPECT_TRUE(all == even);
  EXPECT_LE(MaxUlpDistance(all.Round(),
                           NeumaierObjective(ds.Select(even_rows), kind)),
            1u);
}

TEST(ObjectiveKindTest, TaskMapping) {
  EXPECT_EQ(core::ObjectiveKindForTask(data::TaskKind::kLinear),
            core::ObjectiveKind::kLinear);
  EXPECT_EQ(core::ObjectiveKindForTask(data::TaskKind::kLogistic),
            core::ObjectiveKind::kTruncatedLogistic);
}

eval::CvResult RunCv(const baselines::RegressionAlgorithm& algorithm,
                     const data::RegressionDataset& ds, data::TaskKind task,
                     bool use_cache, exec::ThreadPool* pool = nullptr) {
  eval::CvOptions options;
  options.repeats = 2;
  options.seed = 4242;
  options.use_objective_cache = use_cache;
  options.pool = pool;
  const auto result = eval::CrossValidate(algorithm, ds, task, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ValueOrDie();
}

TEST(CrossValidationCacheTest, StatisticsMatchDirectPath) {
  // Deterministic algorithms first: any drift beyond solver-noise would be a
  // cache bug, not mechanism noise.
  const auto linear_ds = MakeDataset(600, 4, false, 2024);
  baselines::NoPrivacy no_privacy;
  const auto np_cached =
      RunCv(no_privacy, linear_ds, data::TaskKind::kLinear, true);
  const auto np_direct =
      RunCv(no_privacy, linear_ds, data::TaskKind::kLinear, false);
  EXPECT_EQ(np_cached.evaluations, np_direct.evaluations);
  EXPECT_EQ(np_cached.failures, np_direct.failures);
  EXPECT_NEAR(np_cached.mean_error, np_direct.mean_error, 1e-12);
  EXPECT_NEAR(np_cached.stddev_error, np_direct.stddev_error, 1e-12);

  const auto logistic_ds = MakeDataset(600, 4, true, 2025);
  baselines::Truncated truncated;
  const auto tr_cached =
      RunCv(truncated, logistic_ds, data::TaskKind::kLogistic, true);
  const auto tr_direct =
      RunCv(truncated, logistic_ds, data::TaskKind::kLogistic, false);
  EXPECT_EQ(tr_cached.evaluations, tr_direct.evaluations);
  EXPECT_NEAR(tr_cached.mean_error, tr_direct.mean_error, 1e-12);

  // FM: same noise substreams on both paths; the ≤1-ulp objective difference
  // perturbs the released ω (and so the error statistic) negligibly.
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  baselines::FmAlgorithm fm(fm_options);
  const auto fm_cached = RunCv(fm, linear_ds, data::TaskKind::kLinear, true);
  const auto fm_direct = RunCv(fm, linear_ds, data::TaskKind::kLinear, false);
  EXPECT_EQ(fm_cached.evaluations, fm_direct.evaluations);
  EXPECT_NEAR(fm_cached.mean_error, fm_direct.mean_error,
              1e-9 * std::max(1.0, fm_direct.mean_error));
}

TEST(CrossValidationCacheTest, SingularGramFallsBackToPseudoOnBothPaths) {
  // An all-zero feature column makes every fold's Gram matrix exactly
  // singular. linalg::LeastSquares falls back to the minimum-norm
  // pseudo-inverse solution on the direct path, so the cached path must do
  // the same — no fold may fail, and the statistics must agree.
  auto ds = MakeDataset(200, 4, false, 1234);
  for (size_t i = 0; i < ds.size(); ++i) ds.x(i, 2) = 0.0;
  baselines::NoPrivacy no_privacy;
  baselines::Truncated truncated;
  for (const baselines::RegressionAlgorithm* algo :
       {static_cast<const baselines::RegressionAlgorithm*>(&no_privacy),
        static_cast<const baselines::RegressionAlgorithm*>(&truncated)}) {
    const auto cached = RunCv(*algo, ds, data::TaskKind::kLinear, true);
    const auto direct = RunCv(*algo, ds, data::TaskKind::kLinear, false);
    EXPECT_EQ(cached.failures, 0u) << algo->name();
    EXPECT_EQ(direct.failures, 0u) << algo->name();
    EXPECT_EQ(cached.evaluations, direct.evaluations) << algo->name();
    EXPECT_NEAR(cached.mean_error, direct.mean_error, 1e-12) << algo->name();
  }
}

TEST(CrossValidationCacheTest, ByteIdenticalAcrossThreadCountsWithCache) {
  const auto ds = MakeDataset(500, 4, false, 31337);
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  baselines::FmAlgorithm fm(fm_options);

  exec::ThreadPool serial(1);
  const auto baseline =
      RunCv(fm, ds, data::TaskKind::kLinear, true, &serial);
  for (size_t threads : {3u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto parallel = RunCv(fm, ds, data::TaskKind::kLinear, true, &pool);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(parallel.mean_error, baseline.mean_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel.stddev_error, baseline.stddev_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel.evaluations, baseline.evaluations);
  }
}

TEST(CrossValidationCacheTest, UnsupportedAlgorithmsUseDirectPathUnchanged) {
  // NoPrivacy-logistic (exact Newton) cannot train from a quadratic
  // objective; with the cache enabled it must take the direct path and
  // reproduce the cache-off result bit for bit.
  const auto ds = MakeDataset(300, 3, true, 99);
  baselines::NoPrivacy no_privacy;
  const auto with_cache =
      RunCv(no_privacy, ds, data::TaskKind::kLogistic, true);
  const auto without_cache =
      RunCv(no_privacy, ds, data::TaskKind::kLogistic, false);
  EXPECT_EQ(with_cache.mean_error, without_cache.mean_error);
  EXPECT_EQ(with_cache.stddev_error, without_cache.stddev_error);
}

TEST(CrossValidationCacheTest, ContractViolatingDataFallsBackAndFailsAsBefore) {
  // One ‖x‖ > 1 row violates the §3 contract: the cache must refuse, so FM's
  // per-fold validation still runs on the direct path. The violating row is
  // in the training split of 4 of the 5 folds — exactly those fail, exactly
  // as they do with the cache disabled.
  auto ds = MakeDataset(100, 3, false, 7);
  ds.x(0, 0) = 3.0;  // break the contract
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  baselines::FmAlgorithm fm(fm_options);
  eval::CvOptions options;
  options.repeats = 1;
  options.seed = 606;
  for (bool use_cache : {true, false}) {
    options.use_objective_cache = use_cache;
    const auto result =
        eval::CrossValidate(fm, ds, data::TaskKind::kLinear, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.ValueOrDie().failures, 4u) << "cache=" << use_cache;
    EXPECT_EQ(result.ValueOrDie().evaluations, 1u) << "cache=" << use_cache;
  }
}

TEST(RegressionAlgorithmTest, TrainFromObjectiveDefaultIsUnimplemented) {
  baselines::NoPrivacy no_privacy;
  EXPECT_FALSE(no_privacy.SupportsObjectiveCache(data::TaskKind::kLogistic));
  opt::QuadraticModel objective;
  objective.m = {{1.0}};
  objective.alpha = {0.0};
  Rng rng(1);
  const auto result = no_privacy.TrainFromObjective(
      objective, data::TaskKind::kLogistic, rng);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace fm
