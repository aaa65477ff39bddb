#ifndef FM_DATA_NORMALIZER_H_
#define FM_DATA_NORMALIZER_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/table.h"

namespace fm::data {

/// Implements the paper's §3 preprocessing contract.
///
/// Features: each attribute X_j is min–max mapped by
///   x_ij ← (x_ij − α_j) / ((β_j − α_j) · √d)
/// (footnote 1), which guarantees ‖x_i‖₂ ≤ 1 for every tuple.
///
/// Label (linear): min–max mapped onto [−1, 1] (Definition 1's domain).
/// Label (logistic): mapped to 1 when strictly above `threshold` (in raw
/// units), else 0 (§7: "values higher than a predefined threshold are mapped
/// to 1"). With no explicit threshold the fitted median is used.
///
/// Fit once on a table, then Apply to any schema-compatible table — the
/// evaluation harness fits on the full dataset (as the paper's protocol
/// implies; scaling bounds α, β are treated as public domain knowledge,
/// which is the standard assumption in the DP regression literature).
class Normalizer {
 public:
  /// Options controlling the label transformation.
  struct Options {
    TaskKind task = TaskKind::kLinear;
    /// Raw-unit threshold for the logistic label; NaN means "use the median
    /// of the fitted label column".
    double logistic_threshold = kUseMedian;
    /// Implements the paper's footnote-2 extension: appends a constant
    /// coordinate so the regression learns an intercept. The features are
    /// scaled by 1/√(d+1) instead of 1/√d and the extra coordinate is set to
    /// 1/√(d+1), so ‖x_i‖₂ ≤ 1 still holds and every sensitivity formula
    /// applies with dimensionality d+1.
    bool add_intercept = false;
    static constexpr double kUseMedian =
        std::numeric_limits<double>::quiet_NaN();
  };

  /// Learns per-column [α_j, β_j] ranges from `table`. `feature_columns`
  /// lists the predictor columns; `label_column` the regression target.
  /// Fails when the table is empty or a column is missing. Constant feature
  /// columns get the degenerate map x ← 0.
  static Result<Normalizer> Fit(const Table& table,
                                const std::vector<std::string>& feature_columns,
                                const std::string& label_column,
                                const Options& options);

  /// Transforms a table (same schema as the fitted one) into a normalized
  /// RegressionDataset. Values outside the fitted range are clamped so the
  /// §3 invariants hold on unseen data.
  Result<RegressionDataset> Apply(const Table& table) const;

  /// The raw-unit logistic threshold actually in effect (median-resolved).
  double logistic_threshold() const { return logistic_threshold_; }

  /// The fitted feature ranges, one [min,max] per feature column.
  const std::vector<std::pair<double, double>>& feature_ranges() const {
    return feature_ranges_;
  }

  /// Maps a normalized linear-task prediction back into raw label units.
  double DenormalizeLabel(double normalized) const;

 private:
  Normalizer() = default;

  Options options_;
  std::vector<std::string> feature_columns_;
  std::string label_column_;
  std::vector<std::pair<double, double>> feature_ranges_;
  std::pair<double, double> label_range_{0.0, 1.0};
  double logistic_threshold_ = 0.0;
};

}  // namespace fm::data

#endif  // FM_DATA_NORMALIZER_H_
