// Equivalence tests for the exact objective sum and the fold-objective
// cache: core::RoundFixedPoint rounds correctly (ties to even); a training
// objective derived from an ObjectiveAccumulator's global sum (global minus
// test slice) or summed from fold bins (Σ_{g≠f} bin_g) is bitwise equal to
// a fresh build over the materialized training split and within 1 ulp per
// coefficient of a Neumaier-compensated reference; the checked pass names
// the first violating row for every task count; a direct Fit on a fold
// equals FitObjective on its derived objective bit for bit; and
// CrossValidate returns the same bits with the cache on and off, and
// across thread counts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
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

// Bitwise equality of two doubles, so +0.0 and −0.0 (and NaN payloads)
// count as different.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameBits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0);
}

TEST(ObjectiveAccumulatorTest, GlobalIsWithinOneUlpOfACompensatedSum) {
  for (const auto kind : {core::ObjectiveKind::kLinear,
                          core::ObjectiveKind::kTruncatedLogistic}) {
    const bool binary = kind == core::ObjectiveKind::kTruncatedLogistic;
    const auto ds = MakeDataset(2500, 6, binary, 101);
    const auto acc = core::ObjectiveAccumulator::Build(ds, kind);
    EXPECT_EQ(acc.size(), 2500u);
    EXPECT_EQ(acc.dim(), 6u);
    EXPECT_LE(MaxUlpDistance(acc.Global(), NeumaierObjective(ds, kind)), 1u);
  }
}

// AddTuples takes any weights, but only those that keep every term of a
// §3 tuple below 4 in magnitude, which the fixed-point sum relies on.
TEST(ExactObjectiveSumDeathTest, AddTuplesAbortsOnUnboundedWeights) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const double x[2] = {0.5, 0.5};
  const double* xs[1] = {x};
  const double y = 1.0;
  core::ExactObjectiveSum sum(2);
  core::ObjectiveWeights weights =
      core::ObjectiveWeightsFor(core::ObjectiveKind::kLinear);
  sum.AddTuples(weights, xs, &y, 1);
  weights.alpha_offset = 0.5;  // |0.5| + |−2| > 2
  EXPECT_DEATH(sum.AddTuples(weights, xs, &y, 1), "FM_CHECK failed");
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
      }
    }
  }
}

TEST(ObjectiveAccumulatorTest, GlobalMinusEverythingIsEmpty) {
  const auto ds = MakeDataset(2900, 4, false, 55);
  const auto acc =
      core::ObjectiveAccumulator::Build(ds, core::ObjectiveKind::kLinear);
  std::vector<size_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
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

// Row counts for the fold-bin tests, none divisible by 2, 5 or 10: one below
// a single kObjectiveShardRows chunk, one spanning several chunks.
constexpr size_t kOneChunkRows = 997;
constexpr size_t kManyChunkRows = 3 * core::kObjectiveShardRows + 7;

TEST(ObjectiveBinsTest, FoldObjectivesEqualFreshBuildsAndGlobalMinusSlice) {
  exec::ThreadPool pool(3);
  for (const size_t n : {kOneChunkRows, kManyChunkRows}) {
    const auto kind = n == kOneChunkRows
                          ? core::ObjectiveKind::kLinear
                          : core::ObjectiveKind::kTruncatedLogistic;
    const auto ds = MakeDataset(n, 5, kind != core::ObjectiveKind::kLinear,
                                n);
    const auto acc = core::ObjectiveAccumulator::Build(ds, kind, &pool);
    for (const size_t k : {2u, 5u, 10u}) {
      for (uint64_t repeat = 0; repeat < 3; ++repeat) {
        Rng fold_rng(DeriveSeed(k, repeat * 2));
        const data::KFoldPartition partition(n, k, fold_rng);
        const auto bins = core::SumObjectiveBins(
            ds, kind, partition.FoldOfEachRow(), k, &pool);
        ASSERT_TRUE(bins.ok()) << bins.status();
        ASSERT_EQ(bins.ValueOrDie().size(), k);
        for (size_t f = 0; f < k; ++f) {
          const std::string what = "n=" + std::to_string(n) +
                                   " k=" + std::to_string(k) +
                                   " repeat=" + std::to_string(repeat) +
                                   " fold=" + std::to_string(f);
          const auto from_bins =
              core::TrainObjectiveFromBins(bins.ValueOrDie(), f);
          const auto fresh =
              core::ObjectiveAccumulator::Build(
                  ds.Select(partition.TrainRows(f)), kind, &pool)
                  .Global();
          EXPECT_EQ(MaxUlpDistance(from_bins, fresh), 0u) << what;
          EXPECT_EQ(MaxUlpDistance(from_bins, acc.TrainObjectiveForFold(
                                                  partition.TestRows(f))),
                    0u)
              << what;
        }
      }
    }
  }
}

TEST(ObjectiveBinsTest, BinsAreBitIdenticalAcrossTaskCounts) {
  const auto ds = MakeDataset(kManyChunkRows, 4, false, 83);
  Rng fold_rng(5);
  const data::KFoldPartition partition(ds.size(), 5, fold_rng);
  const std::vector<size_t> fold_of = partition.FoldOfEachRow();
  exec::ThreadPool serial(1);
  const auto baseline = core::SumObjectiveBins(
      ds, core::ObjectiveKind::kLinear, fold_of, 5, &serial);
  ASSERT_TRUE(baseline.ok());
  for (const size_t threads : {3u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto bins = core::SumObjectiveBins(
        ds, core::ObjectiveKind::kLinear, fold_of, 5, &pool);
    ASSERT_TRUE(bins.ok());
    EXPECT_TRUE(bins.ValueOrDie() == baseline.ValueOrDie())
        << "threads=" << threads;
  }
}

// The checked pass returns InvalidArgument instead of aborting, and names
// the dataset's first violating row whichever task reads it first.
TEST(ObjectiveBinsTest, ReportsTheFirstViolatingRowForEveryTaskCount) {
  auto ds = MakeDataset(kManyChunkRows, 4, false, 89);
  ds.y[2 * core::kObjectiveShardRows + 3] = 1.5;  // chunk 2
  ds.x(core::kObjectiveShardRows + 9, 0) = 3.0;   // chunk 1: the first
  const std::string first =
      "row " + std::to_string(core::kObjectiveShardRows + 9) + ":";
  for (const size_t threads : {1u, 3u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto bins =
        core::SumObjectiveBins(ds, core::ObjectiveKind::kLinear, {}, 1, &pool);
    EXPECT_EQ(bins.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bins.status().message().rfind(first, 0), 0u)
        << "threads=" << threads << ": " << bins.status().message();
    EXPECT_EQ(core::CheckedObjective(ds, core::ObjectiveKind::kLinear, &pool)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  auto short_labels = MakeDataset(10, 4, false, 89);
  short_labels.y = linalg::Vector(9);
  EXPECT_EQ(core::CheckedObjective(short_labels, core::ObjectiveKind::kLinear)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
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
  const core::ObjectiveWeights weights = core::ObjectiveWeightsFor(kind);
  core::ExactObjectiveSum all(50);
  all.AddTuples(weights, xs.data(), ds.y.raw(), ds.size());
  all.AddTuples(weights, odd_xs.data(), odd_ys.data(), odd_xs.size(),
                /*subtract=*/true);
  core::ExactObjectiveSum even(50);
  even.AddTuples(weights, even_xs.data(), even_ys.data(), even_xs.size());
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
                     bool use_cache, exec::ThreadPool* pool = nullptr,
                     size_t folds = 5, size_t repeats = 2) {
  eval::CvOptions options;
  options.folds = folds;
  options.repeats = repeats;
  options.seed = 4242;
  options.use_objective_cache = use_cache;
  options.pool = pool;
  const auto result = eval::CrossValidate(algorithm, ds, task, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ValueOrDie();
}

// Cache on and cache off return the same bits: each path sums its fold's
// tuples exactly and rounds once.
void ExpectSameResult(const eval::CvResult& cached,
                      const eval::CvResult& direct, const std::string& what) {
  EXPECT_TRUE(SameBits(cached.mean_error, direct.mean_error))
      << what << ": " << cached.mean_error << " vs " << direct.mean_error;
  EXPECT_TRUE(SameBits(cached.stddev_error, direct.stddev_error))
      << what << ": " << cached.stddev_error << " vs " << direct.stddev_error;
  EXPECT_EQ(cached.evaluations, direct.evaluations) << what;
  EXPECT_EQ(cached.failures, direct.failures) << what;
}

TEST(CrossValidationCacheTest, CacheOnAndOffReturnTheSameBits) {
  const auto linear_ds = MakeDataset(600, 4, false, 2024);
  const auto logistic_ds = MakeDataset(600, 4, true, 2025);
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  const baselines::FmAlgorithm fm(fm_options);
  const baselines::NoPrivacy no_privacy;
  const baselines::Truncated truncated;
  const struct {
    const baselines::RegressionAlgorithm* algorithm;
    const data::RegressionDataset* ds;
    data::TaskKind task;
  } cases[] = {
      {&fm, &linear_ds, data::TaskKind::kLinear},
      {&fm, &logistic_ds, data::TaskKind::kLogistic},
      {&truncated, &logistic_ds, data::TaskKind::kLogistic},
      {&no_privacy, &linear_ds, data::TaskKind::kLinear},
  };
  for (const auto& c : cases) {
    const std::string what =
        c.algorithm->name() +
        (c.task == data::TaskKind::kLinear ? "/linear" : "/logistic");
    ASSERT_TRUE(c.algorithm->SupportsObjectiveCache(c.task)) << what;
    ExpectSameResult(RunCv(*c.algorithm, *c.ds, c.task, true),
                     RunCv(*c.algorithm, *c.ds, c.task, false), what);
  }
}

TEST(CrossValidationCacheTest, FoldBinsMatchTheDirectPathOnEveryPool) {
  // The fold-bin path against the direct path (cache off), for row counts
  // below one chunk and across several, fold counts that do not divide
  // them, one and several repeats, on pools of 1, 3 and 8 threads.
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  const baselines::FmAlgorithm fm(fm_options);
  exec::ThreadPool one(1), three(3), eight(8);
  for (const size_t n : {kOneChunkRows, kManyChunkRows}) {
    const auto task = n == kOneChunkRows ? data::TaskKind::kLinear
                                         : data::TaskKind::kLogistic;
    const auto ds =
        MakeDataset(n, 4, task == data::TaskKind::kLogistic, 7 * n);
    for (const size_t k : {2u, 5u, 10u}) {
      for (const size_t repeats : {1u, 3u}) {
        const std::string what = "n=" + std::to_string(n) +
                                 " k=" + std::to_string(k) +
                                 " repeats=" + std::to_string(repeats);
        const auto direct = RunCv(fm, ds, task, false, &one, k, repeats);
        EXPECT_EQ(direct.evaluations, k * repeats) << what;
        for (exec::ThreadPool* pool : {&one, &three, &eight}) {
          ExpectSameResult(RunCv(fm, ds, task, true, pool, k, repeats),
                           direct,
                           what + " threads=" +
                               std::to_string(pool->num_threads()));
        }
      }
    }
  }
}

TEST(CrossValidationCacheTest, ViolationInTheLastChunkFailsAsTheDirectPath) {
  // The pass meets the violating row last: the call still takes the direct
  // path, and the folds that train on the row fail exactly as with the
  // cache off (4 of 5 per repeat).
  auto ds = MakeDataset(kManyChunkRows, 3, false, 97);
  ds.y[ds.size() - 1] = -1.5;  // a linear-task label outside [−1, 1]
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  const baselines::FmAlgorithm fm(fm_options);
  exec::ThreadPool one(1), four(4);
  for (const size_t repeats : {1u, 3u}) {
    const auto direct =
        RunCv(fm, ds, data::TaskKind::kLinear, false, &one, 5, repeats);
    EXPECT_EQ(direct.failures, 4 * repeats);
    EXPECT_EQ(direct.evaluations, repeats);
    for (exec::ThreadPool* pool : {&one, &four}) {
      ExpectSameResult(
          RunCv(fm, ds, data::TaskKind::kLinear, true, pool, 5, repeats),
          direct, "repeats=" + std::to_string(repeats));
    }
  }
}

TEST(CrossValidationCacheTest, SingularGramFallsBackToPseudoOnBothPaths) {
  // An all-zero feature column makes every fold's Gram matrix exactly
  // singular. Both paths minimize the same exact objective, with the
  // minimum-norm pseudo-inverse fallback: no fold may fail, and the results
  // must agree bit for bit.
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
    ExpectSameResult(cached, direct, algo->name());
  }
}

TEST(CrossValidationCacheTest, FitEqualsFitObjectiveOnTheDerivedFold) {
  // What CrossValidate's two paths do for one FM fold: Fit on the
  // materialized training split, and FitObjective on the objective derived
  // from the global sum. Same noise substream, same bits.
  core::FmOptions options;
  options.epsilon = 0.8;
  for (const auto task : {data::TaskKind::kLinear, data::TaskKind::kLogistic}) {
    const auto ds =
        MakeDataset(1500, 6, task == data::TaskKind::kLogistic, 4343);
    const auto acc = core::ObjectiveAccumulator::Build(
        ds, core::ObjectiveKindForTask(task));
    Rng fold_rng(17);
    const auto splits = data::KFoldSplits(ds.size(), 5, fold_rng);
    for (size_t fold = 0; fold < splits.size(); ++fold) {
      const auto train = ds.Select(splits[fold].train);
      const auto derived = acc.TrainObjectiveForFold(splits[fold].test);
      Rng direct_rng(Rng::Fork(99, fold));
      Rng cached_rng(Rng::Fork(99, fold));
      Result<core::FmFitReport> direct = Status::Internal("unset");
      Result<core::FmFitReport> cached = Status::Internal("unset");
      if (task == data::TaskKind::kLinear) {
        const core::FmLinearRegression fm(options);
        direct = fm.Fit(train, direct_rng);
        cached = fm.FitObjective(derived, cached_rng);
      } else {
        const core::FmLogisticRegression fm(options);
        direct = fm.Fit(train, direct_rng);
        cached = fm.FitObjective(derived, cached_rng);
      }
      ASSERT_TRUE(direct.ok() && cached.ok());
      EXPECT_TRUE(
          SameBits(direct.ValueOrDie().omega, cached.ValueOrDie().omega))
          << "fold " << fold;
    }
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
