#include <cmath>

#include <gtest/gtest.h>

#include "baselines/dpme.h"
#include "baselines/filter_priority.h"
#include "baselines/fm_algorithm.h"
#include "baselines/histogram_grid.h"
#include "baselines/no_privacy.h"
#include "baselines/objective_perturbation.h"
#include "common/rng.h"
#include "eval/metrics.h"
#include "opt/logistic_loss.h"

namespace fm::baselines {
namespace {

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
      y += (j % 2 == 0 ? 1.0 : -0.5) * ds.x(i, j);
    }
    // 0.6 keeps the noiseless signal strictly inside [−1,1], so the clamp
    // below never distorts the planted linear model.
    ds.y[i] = std::clamp(0.6 * y + rng.Gaussian(0.0, noise), -1.0, 1.0);
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
      // Alternating-sign weights keep the classes balanced without needing
      // an intercept (the Definition-2 model has none).
      z += (j % 2 == 0 ? 8.0 : -8.0) * ds.x(i, j);
    }
    ds.y[i] = rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0;
  }
  return ds;
}

TEST(NoPrivacyTest, RecoversNoiselessLinearModel) {
  const auto ds = MakeLinearData(400, 3, 0.0, 501);
  NoPrivacy algo;
  Rng rng(1);
  const auto model = algo.Train(ds, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(eval::MeanSquaredError(model.ValueOrDie().omega, ds), 0.0,
              1e-15);
  EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.0);
  EXPECT_FALSE(algo.is_private());
  EXPECT_EQ(algo.name(), "NoPrivacy");
}

TEST(NoPrivacyTest, LinearHandlesCollinearColumns) {
  // The second column duplicates the first, so the Gram matrix is singular:
  // the solve falls back to the finite minimum-norm solution.
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(50, 2);
  ds.y = linalg::Vector(50);
  Rng data_rng(67);
  for (size_t i = 0; i < 50; ++i) {
    const double v = data_rng.Uniform(-0.7, 0.7);
    ds.x(i, 0) = v;
    ds.x(i, 1) = v;
    ds.y[i] = 1.2 * v;
  }
  Rng rng(3);
  const auto model = NoPrivacy().Train(ds, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(model.ok()) << model.status();
  // The minimum-norm solution splits the weight: [0.6, 0.6].
  EXPECT_NEAR(model.ValueOrDie().omega[0], 0.6, 1e-8);
  EXPECT_NEAR(model.ValueOrDie().omega[1], 0.6, 1e-8);
}

TEST(NoPrivacyTest, ObjectiveTrainersRejectAContractViolation) {
  // The exact objective sum needs the §3 bound, so a violating tuple is an
  // InvalidArgument, not an abort.
  auto linear = MakeLinearData(20, 2, 0.0, 507);
  linear.x(0, 0) = 3.0;
  auto logistic = MakeLogisticData(20, 2, 509);
  logistic.y[0] = 0.5;
  Rng rng(4);
  EXPECT_EQ(NoPrivacy().Train(linear, data::TaskKind::kLinear, rng).status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Truncated().Train(linear, data::TaskKind::kLinear, rng).status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Truncated().Train(logistic, data::TaskKind::kLogistic, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NoPrivacyTest, LogisticLearnsSeparation) {
  const auto train = MakeLogisticData(5000, 2, 503);
  const auto test = MakeLogisticData(1000, 2, 505);
  NoPrivacy algo;
  Rng rng(2);
  const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(eval::MisclassificationRate(model.ValueOrDie().omega, test), 0.4);
}

TEST(TruncatedTest, LinearEqualsNoPrivacy) {
  const auto ds = MakeLinearData(300, 3, 0.1, 507);
  Rng rng(3);
  const auto a = NoPrivacy().Train(ds, data::TaskKind::kLinear, rng);
  const auto b = Truncated().Train(ds, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(a.ok() && b.ok());
  // Both minimize the same exact §4.2 sum, so they agree bit for bit.
  EXPECT_TRUE(linalg::AllClose(a.ValueOrDie().omega, b.ValueOrDie().omega,
                               0.0));
}

TEST(TruncatedTest, LogisticCloseToExactOptimum) {
  // §5.2/§7: the truncation error is a small constant, so Truncated's
  // accuracy must track NoPrivacy's closely.
  const auto train = MakeLogisticData(10000, 3, 509);
  const auto test = MakeLogisticData(2000, 3, 511);
  Rng rng(4);
  const auto exact = NoPrivacy().Train(train, data::TaskKind::kLogistic, rng);
  const auto trunc = Truncated().Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(exact.ok() && trunc.ok());
  const double err_exact =
      eval::MisclassificationRate(exact.ValueOrDie().omega, test);
  const double err_trunc =
      eval::MisclassificationRate(trunc.ValueOrDie().omega, test);
  EXPECT_NEAR(err_trunc, err_exact, 0.05);
}

TEST(HistogramGridTest, BuildRespectsCellBudget) {
  for (size_t d : {1u, 4u, 10u, 13u}) {
    const auto grid =
        HistogramGrid::Build(d, data::TaskKind::kLinear, 40000, 1u << 16);
    ASSERT_TRUE(grid.ok());
    EXPECT_LE(grid.ValueOrDie().TotalCells(), (1u << 16) * 2);
    EXPECT_GE(grid.ValueOrDie().feature_bins(), 1u);
  }
  EXPECT_FALSE(HistogramGrid::Build(0, data::TaskKind::kLinear, 10).ok());
  EXPECT_FALSE(HistogramGrid::Build(2, data::TaskKind::kLinear, 0).ok());
}

TEST(HistogramGridTest, GranularityCoarsensWithDimensionality) {
  const auto low =
      HistogramGrid::Build(2, data::TaskKind::kLinear, 100000).ValueOrDie();
  const auto high =
      HistogramGrid::Build(13, data::TaskKind::kLinear, 100000).ValueOrDie();
  EXPECT_GE(low.feature_bins(), high.feature_bins());
}

TEST(HistogramGridTest, LogisticGridHasTwoLabelBins) {
  const auto grid =
      HistogramGrid::Build(3, data::TaskKind::kLogistic, 5000).ValueOrDie();
  EXPECT_EQ(grid.label_bins(), 2u);
}

TEST(HistogramGridTest, CellRoundTripThroughCenter) {
  // CellOf(CellCenter(c)) == c for every cell of a small grid.
  const auto grid =
      HistogramGrid::Build(2, data::TaskKind::kLinear, 2000, 4096)
          .ValueOrDie();
  linalg::Vector x;
  double y = 0.0;
  for (size_t cell = 0; cell < grid.TotalCells(); ++cell) {
    grid.CellCenter(cell, &x, &y);
    ASSERT_EQ(grid.CellOf(x, y), cell) << "cell " << cell;
  }
}

TEST(HistogramGridTest, CountsSumToDatasetSize) {
  const auto ds = MakeLinearData(777, 3, 0.2, 513);
  const auto grid =
      HistogramGrid::Build(3, data::TaskKind::kLinear, ds.size())
          .ValueOrDie();
  const auto counts = grid.Count(ds);
  double total = 0.0;
  for (const auto& [cell, count] : counts) {
    ASSERT_LT(cell, grid.TotalCells());
    total += count;
  }
  EXPECT_DOUBLE_EQ(total, 777.0);
}

TEST(SynthesizeTest, MaterializesRoundedCounts) {
  const auto grid =
      HistogramGrid::Build(2, data::TaskKind::kLogistic, 100, 4096)
          .ValueOrDie();
  std::unordered_map<size_t, double> counts;
  counts[0] = 2.4;   // → 2 copies
  counts[3] = 0.2;   // → drops out
  counts[5] = 1.6;   // → 2 copies
  counts[7] = -3.0;  // → drops out
  const auto synthetic = SynthesizeFromCounts(grid, counts, 1000);
  EXPECT_EQ(synthetic.size(), 4u);
}

TEST(SynthesizeTest, CapsTotalRows) {
  const auto grid =
      HistogramGrid::Build(1, data::TaskKind::kLogistic, 100, 64)
          .ValueOrDie();
  std::unordered_map<size_t, double> counts;
  counts[0] = 1000.0;
  counts[1] = 1000.0;
  const auto synthetic = SynthesizeFromCounts(grid, counts, 100);
  EXPECT_LE(synthetic.size(), 102u);  // rounding slack
}

TEST(DpmeTest, ProducesFiniteModelAndTracksBudget) {
  const auto train = MakeLinearData(3000, 3, 0.1, 515);
  Dpme::Options options;
  options.epsilon = 0.8;
  Dpme algo(options);
  EXPECT_TRUE(algo.is_private());
  Rng rng(5);
  const auto model = algo.Train(train, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.8);
  for (double v : model.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
}

TEST(DpmeTest, HighEpsilonBeatsTinyEpsilon) {
  const auto train = MakeLinearData(20000, 2, 0.05, 517);
  const auto test = MakeLinearData(4000, 2, 0.05, 519);
  auto run = [&](double eps, uint64_t seed) {
    Dpme::Options options;
    options.epsilon = eps;
    Dpme algo(options);
    double total = 0.0;
    for (int t = 0; t < 5; ++t) {
      Rng rng(DeriveSeed(seed, t));
      const auto model = algo.Train(train, data::TaskKind::kLinear, rng);
      EXPECT_TRUE(model.ok());
      total += eval::MeanSquaredError(model.ValueOrDie().omega, test);
    }
    return total / 5.0;
  };
  EXPECT_LT(run(3.2, 100), run(0.01, 200) + 1e-9);
}

TEST(FilterPriorityTest, ProducesFiniteModel) {
  const auto train = MakeLogisticData(3000, 3, 521);
  FilterPriority::Options options;
  options.epsilon = 0.8;
  FilterPriority algo(options);
  EXPECT_TRUE(algo.is_private());
  Rng rng(6);
  const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(model.ok()) << model.status();
  for (double v : model.ValueOrDie().omega) ASSERT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.8);
}

TEST(FilterPriorityTest, WorksOnLinearTask) {
  const auto train = MakeLinearData(5000, 2, 0.1, 523);
  FilterPriority::Options options;
  options.epsilon = 1.6;
  FilterPriority algo(options);
  Rng rng(7);
  const auto model = algo.Train(train, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(model.ok());
  const double mse = eval::MeanSquaredError(model.ValueOrDie().omega, train);
  EXPECT_TRUE(std::isfinite(mse));
}

TEST(FmAlgorithmTest, AdapterForwardsEpsilon) {
  core::FmOptions options;
  options.epsilon = 0.4;
  FmAlgorithm algo(options);
  EXPECT_EQ(algo.name(), "FM");
  EXPECT_TRUE(algo.is_private());
  const auto train = MakeLinearData(2000, 3, 0.1, 525);
  Rng rng(8);
  const auto model = algo.Train(train, data::TaskKind::kLinear, rng);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model.ValueOrDie().epsilon_spent, 0.4);
}

TEST(ObjectivePerturbationTest, LinearTaskUnimplemented) {
  ObjectivePerturbation::Options options;
  ObjectivePerturbation algo(options);
  const auto train = MakeLinearData(100, 2, 0.1, 527);
  Rng rng(9);
  EXPECT_EQ(algo.Train(train, data::TaskKind::kLinear, rng).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ObjectivePerturbationTest, LogisticTrainsAndClassifies) {
  const auto train = MakeLogisticData(20000, 2, 529);
  const auto test = MakeLogisticData(4000, 2, 531);
  ObjectivePerturbation::Options options;
  options.epsilon = 3.2;
  ObjectivePerturbation algo(options);
  Rng rng(10);
  const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_LT(eval::MisclassificationRate(model.ValueOrDie().omega, test),
            0.45);
}

TEST(ObjectivePerturbationTest, HighEpsilonApproachesRegularizedOptimum) {
  const auto train = MakeLogisticData(5000, 2, 533);
  ObjectivePerturbation::Options options;
  options.epsilon = 1e6;
  options.lambda = 1e-3;
  ObjectivePerturbation algo(options);
  Rng rng(11);
  const auto model = algo.Train(train, data::TaskKind::kLogistic, rng);
  ASSERT_TRUE(model.ok());
  const auto exact = opt::FitLogisticNewton(
      train.x, train.y, 1e-3 * static_cast<double>(train.size()));
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(linalg::MaxAbsDiff(model.ValueOrDie().omega, exact.ValueOrDie()),
            0.1);
}

}  // namespace
}  // namespace fm::baselines
