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
/// check — the serving store and the checked objective sum behind every
/// fit and the cross-validation fold bins (core::ObjectiveBinPass) call
/// it — so a tuple gets the same verdict on every path.
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

  /// Returns the subset of tuples at the given row indices. y must hold one
  /// label per row (checked).
  RegressionDataset Select(const std::vector<size_t>& rows) const;

  /// Returns a uniform random subset containing ceil(rate * n) tuples
  /// (the paper's Table 2 "data subset sampling rate"). `rate` is clamped to
  /// [0, 1].
  RegressionDataset Sample(double rate, Rng& rng) const;

};

/// One train/test split of row indices.
struct Split {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// One repeat of shuffled k-fold cross-validation over n rows (the paper's
/// protocol with k = 5), and the one definition of fold membership: the
/// constructor shuffles the row order once with `rng`, and fold f holds the
/// rows at positions [f·n/k, (f+1)·n/k) of that order, so every row is in
/// exactly one fold and fold sizes differ by at most one. Requires
/// 2 ≤ k ≤ n.
class KFoldPartition {
 public:
  KFoldPartition(size_t n, size_t k, Rng& rng);

  size_t folds() const { return folds_; }

  /// Fold f's held-out (test) rows, in shuffled order.
  std::vector<size_t> TestRows(size_t fold) const;

  /// The rows outside fold f, in shuffled order.
  std::vector<size_t> TrainRows(size_t fold) const;

  /// Entry r is the fold whose TestRows hold row r. O(n).
  std::vector<size_t> FoldOfEachRow() const;

 private:
  // Position in order_ where fold f's rows begin; Begin(k) is n.
  size_t Begin(size_t fold) const { return fold * order_.size() / folds_; }

  size_t folds_;
  std::vector<size_t> order_;  // the shuffled rows
};

/// The k splits of one KFoldPartition(n, k, rng): split f's test rows are
/// TestRows(f) and its training rows TrainRows(f).
std::vector<Split> KFoldSplits(size_t n, size_t k, Rng& rng);

}  // namespace fm::data

#endif  // FM_DATA_DATASET_H_
