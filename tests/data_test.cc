#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/objective_accumulator.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/table.h"
#include "serve/service.h"

namespace fm::data {
namespace {

// The dataset-level §3 verdict: the checked objective sum every fit and the
// cross-validation fold bins run, which checks each row with
// CheckNormalizationContract.
bool PassesContract(const RegressionDataset& ds, TaskKind task) {
  return core::CheckedObjective(ds, core::ObjectiveKindForTask(task)).ok();
}

Table MakeSmallTable() {
  auto table = Table::Create({"a", "b", "y"}).ValueOrDie();
  table.AppendRow({1.0, 10.0, 100.0});
  table.AppendRow({2.0, 20.0, 200.0});
  table.AppendRow({3.0, 30.0, 300.0});
  table.AppendRow({4.0, 40.0, 400.0});
  return table;
}

TEST(TableTest, CreateRejectsBadNames) {
  EXPECT_FALSE(Table::Create({"a", "a"}).ok());
  EXPECT_FALSE(Table::Create({"a", ""}).ok());
  EXPECT_TRUE(Table::Create({"a", "b"}).ok());
}

TEST(TableTest, AppendAndAccess) {
  const Table t = MakeSmallTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_cols(), 3u);
  EXPECT_DOUBLE_EQ(t.Get(2, 1), 30.0);
  EXPECT_EQ(t.ColumnIndex("y").ValueOrDie(), 2u);
  EXPECT_EQ(t.ColumnIndex("missing").status().code(), StatusCode::kNotFound);
}

TEST(TableTest, SelectRowsAndColumns) {
  const Table t = MakeSmallTable();
  const Table rows = t.SelectRows({3, 0});
  EXPECT_EQ(rows.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(rows.Get(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(rows.Get(1, 0), 1.0);

  const auto cols = t.SelectColumns({"y", "a"});
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.ValueOrDie().num_cols(), 2u);
  EXPECT_DOUBLE_EQ(cols.ValueOrDie().Get(1, 0), 200.0);
  EXPECT_FALSE(t.SelectColumns({"zz"}).ok());
}

TEST(TableTest, ColumnMinMax) {
  const Table t = MakeSmallTable();
  EXPECT_DOUBLE_EQ(t.ColumnMin(1).ValueOrDie(), 10.0);
  EXPECT_DOUBLE_EQ(t.ColumnMax(2).ValueOrDie(), 400.0);
  EXPECT_FALSE(t.ColumnMin(9).ok());
  const Table empty = Table::Create({"x"}).ValueOrDie();
  EXPECT_EQ(empty.ColumnMin(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CsvTest, RoundTrip) {
  const Table t = MakeSmallTable();
  const std::string path = ::testing::TempDir() + "/fm_csv_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.ValueOrDie().column_names(), t.column_names());
  EXPECT_EQ(loaded.ValueOrDie().num_rows(), t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_cols(); ++c) {
      EXPECT_DOUBLE_EQ(loaded.ValueOrDie().Get(r, c), t.Get(r, c));
    }
  }
  std::remove(path.c_str());
}

TEST(CsvTest, ErrorsOnMissingAndMalformed) {
  EXPECT_EQ(ReadCsv("/nonexistent/file.csv").status().code(),
            StatusCode::kIoError);
  const std::string path = ::testing::TempDir() + "/fm_csv_bad.csv";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b\n1,2\n3\n", f);  // ragged
    std::fclose(f);
  }
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kIoError);
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b\n1,apple\n", f);  // non-numeric
    std::fclose(f);
  }
  EXPECT_EQ(ReadCsv(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

RegressionDataset MakeDataset(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) ds.x(i, j) = rng.Uniform() * scale;
    ds.y[i] = rng.Uniform(-1.0, 1.0);
  }
  return ds;
}

TEST(DatasetTest, SelectPreservesRows) {
  const RegressionDataset ds = MakeDataset(10, 3, 1);
  const RegressionDataset sub = ds.Select({7, 2});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.y[0], ds.y[7]);
  EXPECT_DOUBLE_EQ(sub.x(1, 2), ds.x(2, 2));
}

TEST(DatasetDeathTest, SelectAbortsOnALabelVectorOfTheWrongLength) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RegressionDataset ds = MakeDataset(10, 3, 1);
  ds.y = linalg::Vector(5);
  EXPECT_DEATH(ds.Select({7, 2}), "FM_CHECK failed");
}

TEST(DatasetTest, SampleRespectsRate) {
  const RegressionDataset ds = MakeDataset(100, 2, 2);
  Rng rng(3);
  EXPECT_EQ(ds.Sample(0.3, rng).size(), 30u);
  EXPECT_EQ(ds.Sample(1.0, rng).size(), 100u);
  EXPECT_EQ(ds.Sample(0.0, rng).size(), 0u);
  EXPECT_EQ(ds.Sample(2.0, rng).size(), 100u);  // clamped
}

TEST(DatasetTest, NormalizationContract) {
  RegressionDataset ds = MakeDataset(20, 4, 4);
  EXPECT_TRUE(PassesContract(ds, TaskKind::kLinear));
  const auto check_row = [&ds](size_t i, TaskKind task) {
    return CheckNormalizationContract(ds.x.Row(i), ds.dim(), ds.y[i], task);
  };
  ds.y[0] = 2.0;
  EXPECT_EQ(check_row(0, TaskKind::kLinear).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(PassesContract(ds, TaskKind::kLinear));
  ds.y[0] = 0.0;
  EXPECT_TRUE(check_row(0, TaskKind::kLinear).ok());
  EXPECT_TRUE(check_row(0, TaskKind::kLogistic).ok());
  ds.y[0] = 0.5;  // inside [−1, 1], but not a class label
  EXPECT_TRUE(check_row(0, TaskKind::kLinear).ok());
  EXPECT_EQ(check_row(0, TaskKind::kLogistic).code(),
            StatusCode::kInvalidArgument);
  ds.y[0] = 0.0;
  ds.x(0, 0) = 5.0;
  EXPECT_EQ(check_row(0, TaskKind::kLinear).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(PassesContract(ds, TaskKind::kLinear));
  // A label vector of the wrong length fails the dataset check.
  RegressionDataset short_labels = MakeDataset(20, 4, 4);
  short_labels.y = linalg::Vector(19);
  EXPECT_FALSE(PassesContract(short_labels, TaskKind::kLinear));
}

TEST(DatasetTest, NormalizationContractRejectsNonFiniteValues) {
  // Every comparison with NaN is false, so a check written as "reject when
  // above the bound" would let a NaN through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    RegressionDataset feature = MakeDataset(20, 4, 4);
    feature.x(3, 1) = bad;
    EXPECT_FALSE(PassesContract(feature, TaskKind::kLinear)) << bad;
    RegressionDataset label = MakeDataset(20, 4, 4);
    label.y[5] = bad;
    EXPECT_FALSE(PassesContract(label, TaskKind::kLinear)) << bad;
  }
}

TEST(DatasetTest, BoundaryTupleGetsOneContractVerdictEverywhere) {
  // Σx² = 1.0000000020000004 lies above the (1 + 1e-9)² bound, yet its
  // rounded square root does not exceed 1 + 1e-9: a check on the root
  // accepted the tuple that the serving store's check on the square
  // refused, so Fit trained on data Bootstrap rejected.
  RegressionDataset ds;
  ds.x = linalg::Matrix(1, 2);
  ds.x(0, 0) = 0.92001730983005447;
  ds.x(0, 1) = 0.39187772533415316;
  ds.y = linalg::Vector(1);
  ds.y[0] = 0.5;

  EXPECT_FALSE(PassesContract(ds, TaskKind::kLinear));
  Rng rng(7);
  EXPECT_EQ(core::FmLinearRegression(core::FmOptions{})
                .Fit(ds, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  serve::ServiceOptions options;
  options.dim = 2;
  auto service = serve::Service::Create(options).ValueOrDie();
  EXPECT_EQ(service->Bootstrap(ds).code(), StatusCode::kInvalidArgument);
}

TEST(KFoldTest, PartitionsEveryRowExactlyOnce) {
  Rng rng(5);
  const size_t n = 103, k = 5;
  const auto splits = KFoldSplits(n, k, rng);
  ASSERT_EQ(splits.size(), k);
  std::set<size_t> seen;
  for (const auto& split : splits) {
    EXPECT_EQ(split.train.size() + split.test.size(), n);
    for (size_t idx : split.test) {
      EXPECT_TRUE(seen.insert(idx).second) << "row in two test folds";
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(KFoldTest, FoldSizesDifferByAtMostOne) {
  Rng rng(6);
  const auto splits = KFoldSplits(23, 5, rng);
  size_t lo = 23, hi = 0;
  for (const auto& split : splits) {
    lo = std::min(lo, split.test.size());
    hi = std::max(hi, split.test.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(KFoldTest, TrainAndTestDisjoint) {
  Rng rng(7);
  const auto splits = KFoldSplits(50, 4, rng);
  for (const auto& split : splits) {
    std::set<size_t> train(split.train.begin(), split.train.end());
    for (size_t idx : split.test) EXPECT_EQ(train.count(idx), 0u);
  }
}

TEST(KFoldTest, PartitionIsTheSplitsAndFoldOfEachRowInvertsIt) {
  // KFoldSplits is one KFoldPartition drawn from the same stream, and
  // FoldOfEachRow names, for every row, the fold whose TestRows hold it.
  for (const size_t n : {23u, 100u}) {
    Rng split_rng(11);
    Rng partition_rng(11);
    const auto splits = KFoldSplits(n, 5, split_rng);
    const KFoldPartition partition(n, 5, partition_rng);
    const std::vector<size_t> fold_of = partition.FoldOfEachRow();
    ASSERT_EQ(fold_of.size(), n);
    for (size_t f = 0; f < 5; ++f) {
      EXPECT_EQ(partition.TestRows(f), splits[f].test);
      EXPECT_EQ(partition.TrainRows(f), splits[f].train);
      for (const size_t row : splits[f].test) EXPECT_EQ(fold_of[row], f);
    }
    // Both consumed the stream identically.
    EXPECT_EQ(split_rng.Next(), partition_rng.Next());
  }
}

TEST(NormalizerTest, FeaturesLandInUnitSphere) {
  Table t = Table::Create({"x1", "x2", "y"}).ValueOrDie();
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    t.AppendRow({rng.Uniform(-50.0, 50.0), rng.Uniform(0.0, 1000.0),
                 rng.Uniform(-5.0, 5.0)});
  }
  Normalizer::Options options;
  options.task = TaskKind::kLinear;
  const auto norm = Normalizer::Fit(t, {"x1", "x2"}, "y", options);
  ASSERT_TRUE(norm.ok());
  const auto ds = norm.ValueOrDie().Apply(t);
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(PassesContract(ds.ValueOrDie(), TaskKind::kLinear));
}

TEST(NormalizerTest, LinearLabelSpansMinusOneToOne) {
  Table t = Table::Create({"x", "y"}).ValueOrDie();
  t.AppendRow({0.0, 10.0});
  t.AppendRow({1.0, 20.0});
  t.AppendRow({2.0, 30.0});
  Normalizer::Options options;
  const auto norm = Normalizer::Fit(t, {"x"}, "y", options);
  ASSERT_TRUE(norm.ok());
  const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
  EXPECT_DOUBLE_EQ(ds.y[0], -1.0);
  EXPECT_DOUBLE_EQ(ds.y[1], 0.0);
  EXPECT_DOUBLE_EQ(ds.y[2], 1.0);
  // Denormalization inverts the map.
  EXPECT_DOUBLE_EQ(norm.ValueOrDie().DenormalizeLabel(0.0), 20.0);
  EXPECT_DOUBLE_EQ(norm.ValueOrDie().DenormalizeLabel(1.0), 30.0);
}

TEST(NormalizerTest, LogisticMedianThreshold) {
  Table t = Table::Create({"x", "y"}).ValueOrDie();
  for (int i = 1; i <= 9; ++i) t.AppendRow({double(i), double(i * 10)});
  Normalizer::Options options;
  options.task = TaskKind::kLogistic;
  const auto norm = Normalizer::Fit(t, {"x"}, "y", options);
  ASSERT_TRUE(norm.ok());
  EXPECT_DOUBLE_EQ(norm.ValueOrDie().logistic_threshold(), 50.0);
  const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
  int ones = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_TRUE(ds.y[i] == 0.0 || ds.y[i] == 1.0);
    ones += ds.y[i] == 1.0;
  }
  EXPECT_EQ(ones, 4);  // 60..90 above the median 50
}

TEST(NormalizerTest, ExplicitLogisticThreshold) {
  Table t = Table::Create({"x", "y"}).ValueOrDie();
  t.AppendRow({0.0, 5.0});
  t.AppendRow({1.0, 15.0});
  Normalizer::Options options;
  options.task = TaskKind::kLogistic;
  options.logistic_threshold = 10.0;
  const auto norm = Normalizer::Fit(t, {"x"}, "y", options);
  ASSERT_TRUE(norm.ok());
  const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
  EXPECT_DOUBLE_EQ(ds.y[0], 0.0);
  EXPECT_DOUBLE_EQ(ds.y[1], 1.0);
}

TEST(NormalizerTest, ClampsUnseenOutOfRangeValues) {
  Table train = Table::Create({"x", "y"}).ValueOrDie();
  train.AppendRow({0.0, -1.0});
  train.AppendRow({10.0, 1.0});
  Normalizer::Options options;
  const auto norm = Normalizer::Fit(train, {"x"}, "y", options);
  ASSERT_TRUE(norm.ok());

  Table wild = Table::Create({"x", "y"}).ValueOrDie();
  wild.AppendRow({-100.0, -7.0});
  wild.AppendRow({1000.0, 7.0});
  const auto ds = norm.ValueOrDie().Apply(wild).ValueOrDie();
  EXPECT_TRUE(PassesContract(ds, TaskKind::kLinear));
}

TEST(NormalizerTest, ConstantFeatureMapsToZero) {
  Table t = Table::Create({"x", "c", "y"}).ValueOrDie();
  t.AppendRow({1.0, 5.0, 0.0});
  t.AppendRow({2.0, 5.0, 1.0});
  Normalizer::Options options;
  const auto norm = Normalizer::Fit(t, {"x", "c"}, "y", options);
  ASSERT_TRUE(norm.ok());
  const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
  EXPECT_DOUBLE_EQ(ds.x(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ds.x(1, 1), 0.0);
}

TEST(NormalizerTest, InterceptExtensionAddsConstantCoordinate) {
  // Footnote 2: appended coordinate is the constant 1/√(d+1), and the §3
  // contract still holds.
  Table t = Table::Create({"x1", "x2", "y"}).ValueOrDie();
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({rng.Uniform(0.0, 10.0), rng.Uniform(-3.0, 3.0),
                 rng.Uniform(0.0, 1.0)});
  }
  Normalizer::Options options;
  options.add_intercept = true;
  const auto norm = Normalizer::Fit(t, {"x1", "x2"}, "y", options);
  ASSERT_TRUE(norm.ok());
  const auto ds = norm.ValueOrDie().Apply(t).ValueOrDie();
  EXPECT_EQ(ds.dim(), 3u);
  EXPECT_TRUE(PassesContract(ds, TaskKind::kLinear));
  const double expected = 1.0 / std::sqrt(3.0);
  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_DOUBLE_EQ(ds.x(i, 2), expected);
  }
}

TEST(NormalizerTest, InterceptExtensionFitsOffsetData) {
  // y has a constant offset no through-the-origin model can express.
  Table t = Table::Create({"x", "y"}).ValueOrDie();
  Rng rng(10);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(0.0, 1.0);
    t.AppendRow({x, 5.0 + 0.1 * x});
  }
  Normalizer::Options plain, intercepted;
  intercepted.add_intercept = true;
  const auto ds_plain =
      Normalizer::Fit(t, {"x"}, "y", plain).ValueOrDie().Apply(t).ValueOrDie();
  const auto ds_int = Normalizer::Fit(t, {"x"}, "y", intercepted)
                          .ValueOrDie()
                          .Apply(t)
                          .ValueOrDie();
  Rng fit_rng(11);
  const baselines::NoPrivacy least_squares;
  const auto plain_model =
      least_squares.Train(ds_plain, TaskKind::kLinear, fit_rng);
  const auto int_model = least_squares.Train(ds_int, TaskKind::kLinear, fit_rng);
  ASSERT_TRUE(plain_model.ok() && int_model.ok());
  const linalg::Vector& w_plain = plain_model.ValueOrDie().omega;
  const linalg::Vector& w_int = int_model.ValueOrDie().omega;
  auto mse = [](const linalg::Vector& w, const RegressionDataset& ds) {
    double sum = 0.0;
    for (size_t i = 0; i < ds.size(); ++i) {
      double pred = 0.0;
      for (size_t j = 0; j < ds.dim(); ++j) pred += ds.x(i, j) * w[j];
      sum += (ds.y[i] - pred) * (ds.y[i] - pred);
    }
    return sum / static_cast<double>(ds.size());
  };
  EXPECT_LT(mse(w_int, ds_int), 0.25 * mse(w_plain, ds_plain));
  EXPECT_NEAR(mse(w_int, ds_int), 0.0, 1e-9);
}

TEST(NormalizerTest, FitRejectsBadInputs) {
  const Table empty = Table::Create({"x", "y"}).ValueOrDie();
  Normalizer::Options options;
  EXPECT_FALSE(Normalizer::Fit(empty, {"x"}, "y", options).ok());
  const Table t = MakeSmallTable();
  EXPECT_FALSE(Normalizer::Fit(t, {}, "y", options).ok());
  EXPECT_FALSE(Normalizer::Fit(t, {"missing"}, "y", options).ok());
  EXPECT_FALSE(Normalizer::Fit(t, {"a"}, "missing", options).ok());
}

}  // namespace
}  // namespace fm::data
