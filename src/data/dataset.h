#ifndef FM_DATA_DATASET_H_
#define FM_DATA_DATASET_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::data {

/// Which regression task a dataset is being prepared for. Linear keeps the
/// label continuous in [−1, 1]; logistic thresholds it to {0, 1}.
enum class TaskKind { kLinear, kLogistic };

/// The §3 normalization contract for one tuple of a `task` dataset: every
/// value finite, ‖x‖₂² ≤ (1 + 10⁻⁹)², and y ∈ [−1 − 10⁻⁹, 1 + 10⁻⁹]
/// (kLinear) or y ∈ {0, 1} (kLogistic). Returns InvalidArgument naming the
/// first clause the tuple violates. This is the library's one contract
/// check — the serving store, RegressionDataset's check, the FM
/// front-ends' Fit and the fold-objective cache all call it — so a tuple
/// gets the same verdict on every path.
Status CheckNormalizationContract(const double* x, size_t dim, double y,
                                  TaskKind task);

/// The regression task's whole-dataset view after §3 preprocessing:
/// feature rows x_i with ‖x_i‖₂ ≤ 1, labels y_i in [−1, 1] (linear task) or
/// {0, 1} (logistic task).
///
/// Every algorithm in this library — FM, the baselines, the evaluation
/// harness — consumes this type, so the §3 contract is enforced in exactly
/// one place (the Normalizer, which produces it).
struct RegressionDataset {
  linalg::Matrix x;  ///< n × d feature matrix.
  linalg::Vector y;  ///< n labels.

  /// Number of tuples.
  size_t size() const { return x.rows(); }

  /// Feature dimensionality d.
  size_t dim() const { return x.cols(); }

  /// Returns the subset of tuples at the given row indices.
  RegressionDataset Select(const std::vector<size_t>& rows) const;

  /// Returns a uniform random subset containing ceil(rate * n) tuples
  /// (the paper's Table 2 "data subset sampling rate"). `rate` is clamped to
  /// [0, 1].
  RegressionDataset Sample(double rate, Rng& rng) const;

  /// True when y holds one label per row and every tuple passes
  /// CheckNormalizationContract for `task`. Guards the paths whose sums
  /// rely on the bound (core::ObjectiveAccumulator::Build aborts without
  /// it).
  bool SatisfiesNormalizationContract(TaskKind task) const;
};

/// One train/test split of row indices.
struct Split {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Produces the k folds of a shuffled k-fold cross-validation over n rows
/// (the paper's protocol with k = 5). Every row appears in exactly one test
/// fold; fold sizes differ by at most one. Requires 2 ≤ k ≤ n.
std::vector<Split> KFoldSplits(size_t n, size_t k, Rng& rng);

}  // namespace fm::data

#endif  // FM_DATA_DATASET_H_
