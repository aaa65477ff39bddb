#ifndef FM_EVAL_EXPERIMENT_H_
#define FM_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/regression_algorithm.h"
#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "data/table.h"

namespace fm::eval {

/// The paper's Table 2 parameter grids (defaults in bold in the paper).
struct ParameterGrid {
  static const std::vector<double>& SamplingRates();     // 0.1 … 1.0
  static const std::vector<int>& Dimensionalities();     // 5, 8, 11, 14
  static const std::vector<double>& PrivacyBudgets();    // 3.2 … 0.1
  static constexpr double kDefaultSamplingRate = 0.6;
  static constexpr double kDefaultEpsilon = 0.8;
  static constexpr int kDefaultDimensionality = 14;
};

/// Benchmark-wide knobs, resolved once from the environment:
///   FM_BENCH_SCALE    fraction of the paper's dataset cardinality to
///                     generate (default 0.5 → US 185k, Brazil 95k; set to 1
///                     for the paper's full 370k/190k — FM's noise is
///                     cardinality-independent, so the scale sets where on
///                     the Figure-5 signal/noise curve the defaults sit);
///   FM_BENCH_REPEATS  cross-validation repeats (paper: 50; default 2);
///   FM_BENCH_SEED     root seed for all derived randomness.
/// Thread count is orthogonal: FM_THREADS sizes the global exec::ThreadPool
/// the engine runs on, and accuracy output is byte-identical for every
/// value (per-task RNG substreams; see exec/parallel.h).
struct BenchConfig {
  double scale = 0.5;
  size_t repeats = 2;
  size_t folds = 5;
  uint64_t seed = 20120827;  // VLDB 2012 opening day

  /// Reads the FM_BENCH_* environment variables. Fails with
  /// kInvalidArgument when FM_BENCH_REPEATS is below 1.
  static Result<BenchConfig> FromEnv();
};

/// A generated census dataset with its display name.
struct DatasetBundle {
  std::string name;  ///< "US" or "Brazil"
  data::Table table;
};

/// Generates the two §7 datasets at `scale` × the paper's cardinality.
Result<std::vector<DatasetBundle>> LoadCensusDatasets(double scale,
                                                      uint64_t seed);

/// Normalizes `table` into a task-ready dataset using the §7 attribute
/// subset for `total_attributes` ∈ {5, 8, 11, 14}; AnnualIncome is the
/// label (thresholded at its median for the logistic task).
Result<data::RegressionDataset> PrepareTask(const data::Table& table,
                                            int total_attributes,
                                            data::TaskKind task);

/// The five §7 algorithms at privacy budget ε: FM, DPME, FP, NoPrivacy,
/// Truncated (Truncated only materializes for the logistic task; for linear
/// it is identical to NoPrivacy, as in the paper's figures).
std::vector<std::unique_ptr<baselines::RegressionAlgorithm>> MakeAlgorithms(
    double epsilon, data::TaskKind task);

/// Fixed-width table helpers shared by the figure benches, so every bench
/// prints rows in the same "fig4a | x=8 | FM 0.1234 | …" shape.
void PrintTableHeader(const std::string& figure, const std::string& x_label,
                      const std::vector<std::string>& algorithm_names);
void PrintTableRow(const std::string& figure, double x_value,
                   const std::vector<double>& errors);

}  // namespace fm::eval

#endif  // FM_EVAL_EXPERIMENT_H_
