#ifndef FM_CORE_OBJECTIVE_ACCUMULATOR_H_
#define FM_CORE_OBJECTIVE_ACCUMULATOR_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "data/normalizer.h"
#include "opt/quadratic_model.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::core {

/// Which per-tuple quadratic contribution an ObjectiveAccumulator sums.
enum class ObjectiveKind {
  /// §4.2's exact linear-regression objective: tuple i contributes
  /// M_i = x_i x_iᵀ, α_i = −2 y_i x_i, β_i = y_i².
  kLinear,
  /// §5.3's degree-2 Taylor surrogate of the logistic objective: tuple i
  /// contributes M_i = ⅛ x_i x_iᵀ, α_i = (½ − y_i) x_i, β_i = log 2.
  kTruncatedLogistic,
};

/// The objective kind that the §7 evaluation uses for `task`.
ObjectiveKind ObjectiveKindForTask(data::TaskKind task);

// ---------------------------------------------------------------------------
// Shared compensated-accumulation primitives.
//
// Both the offline ObjectiveAccumulator below and the online
// serve::IncrementalObjective maintain the same state: flat arrays of
// Neumaier-compensated (sum, comp) coefficient pairs — the M upper triangle
// in row-major order (d(d+1)/2 entries), then α (d), then β (1) — summed
// over per-tuple contributions in a fixed order. These free functions are
// that one shared specification; any two accumulations of the same tuples
// in the same order produce the same bits regardless of which layer ran
// them (the kernel is bit-identical to its scalar oracle,
// linalg::kernels::RefCompensatedTupleUpdate).
// ---------------------------------------------------------------------------

/// Rows per parallel/incremental shard. Fixed (never derived from the thread
/// count), so shard partial sums — and the serially-reduced totals built
/// from them — are bit-identical for every pool size.
inline constexpr size_t kObjectiveShardRows = 1024;

/// Number of flat compensated coefficients for dimensionality `dim`:
/// the M upper triangle, then α, then β.
inline constexpr size_t NumObjectiveCoefficients(size_t dim) {
  return dim * (dim + 1) / 2 + dim + 1;
}

/// Neumaier's variant of Kahan summation: sum += v with the rounding error
/// banked in comp. Unlike plain Kahan it stays exact when |v| > |sum|.
inline void CompensatedAdd(double& sum, double& comp, double v) {
  const double t = sum + v;
  if (std::fabs(sum) >= std::fabs(v)) {
    comp += (sum - t) + v;
  } else {
    comp += (v - t) + sum;
  }
  sum = t;
}

/// The per-tuple coefficient weights of `kind` for label `y`: tuple x
/// contributes m_scale · x xᵀ to M, alpha_bias · x to α, and beta to β.
void ObjectiveTupleParams(ObjectiveKind kind, double y, double* m_scale,
                          double* alpha_bias, double* beta);

/// Adds one tuple's contribution into the flat (sum, comp) arrays (size
/// NumObjectiveCoefficients(dim)), compensation applied per tuple, through
/// the blocked kernel layer.
void AccumulateTupleContribution(ObjectiveKind kind, const double* x,
                                 size_t dim, double y, double* sum,
                                 double* comp);

/// Adds linalg::kernels::kCompensatedBatch tuples' contributions in one
/// fused sweep. Bit-identical to the equivalent sequence of
/// AccumulateTupleContribution calls in the same order.
void AccumulateTupleContributionBatch(ObjectiveKind kind,
                                      const double* const* xs, size_t dim,
                                      const double* ys, double* sum,
                                      double* comp);

/// Rounds flat compensated coefficients into a QuadraticModel (M mirrored
/// from its accumulated upper triangle).
opt::QuadraticModel RoundObjectiveCoefficients(size_t dim, const double* sum,
                                               const double* comp);

/// Fold-decomposable objective cache — the algorithmic core of the k-fold
/// speedup. Both regression objectives are plain sums of per-tuple quadratic
/// contributions (§4.2, §5.3), so a fold's training objective is the
/// dataset-global sum minus the held-out tuples' contribution:
///
///   f_train(ω) = f_D(ω) − f_test(ω).
///
/// The accumulator computes every tuple's contribution exactly once per
/// dataset — in parallel over fixed-size row shards via exec::ParallelFor,
/// with the shard partials reduced serially in shard order so the result is
/// bit-identical for every thread count — and then derives each fold's
/// training objective in O(|test| · d²) instead of O(|train| · d²). Over a
/// k-fold repeat that turns (k−1)·n tuple visits into n, and the global pass
/// itself is shared by all repeats.
///
/// Every coefficient is kept as a Neumaier compensated (sum, error) pair,
/// the compensation is applied per tuple, and it is carried through the
/// subtraction, so the derived training objective is a faithful rounding of
/// the exact tuple sum (within 1 ulp per coefficient) — the test fold is
/// only 1/k of the data, so the subtraction loses at most a factor k/(k−1)
/// of magnitude and the compensation absorbs what little cancellation
/// occurs. The kernel layer accelerates the accumulation without touching
/// these semantics: tuples stream through
/// linalg::kernels::CompensatedTupleUpdate(Batch) in per-shard row order,
/// bit-identical to the scalar oracles (tests/kernels_test.cc).
///
/// The accumulator keeps a pointer to the dataset it was built from (to read
/// test-slice tuples); the dataset must outlive it.
class ObjectiveAccumulator {
 public:
  /// Sums all tuple contributions of `dataset` on `pool` (nullptr → the
  /// global FM_THREADS pool). O(n · d²), one pass.
  static ObjectiveAccumulator Build(const data::RegressionDataset& dataset,
                                    ObjectiveKind kind,
                                    exec::ThreadPool* pool = nullptr);

  ObjectiveKind kind() const { return kind_; }
  /// Feature dimensionality d.
  size_t dim() const { return dim_; }
  /// Number of tuples accumulated.
  size_t size() const { return dataset_ == nullptr ? 0 : dataset_->size(); }

  /// The rounded dataset-global objective — equal to BuildLinearObjective /
  /// BuildTruncatedLogisticObjective on the full dataset up to summation
  /// order (and more accurate, being compensated).
  opt::QuadraticModel Global() const;

  /// The objective of just the tuples at `rows`, compensated and rounded.
  /// O(|rows| · d²).
  opt::QuadraticModel SliceObjective(const std::vector<size_t>& rows) const;

  /// The training objective of the fold whose held-out (test) tuples are
  /// `test_rows`: the cached global sum minus the test slice's contribution,
  /// with compensation carried through the subtraction. O(|test_rows| · d²).
  opt::QuadraticModel TrainObjectiveForFold(
      const std::vector<size_t>& test_rows) const;

 private:
  ObjectiveAccumulator() = default;

  // Flat compensated coefficient layout — see the shared primitives above.
  size_t num_coefficients() const { return NumObjectiveCoefficients(dim_); }

  // Adds tuple `row`'s contribution into the (sum, comp) arrays.
  void AccumulateTuple(size_t row, std::vector<double>& sum,
                       std::vector<double>& comp) const;

  // Adds one full batch of kCompensatedBatch tuples (the shared
  // batch-assembly + kernel dispatch used by both accumulation orders).
  void AccumulateBatch(const size_t* rows, std::vector<double>& sum,
                       std::vector<double>& comp) const;

  // Adds rows [begin, end) in order, batching tuples through the blocked
  // kernel when enabled (bit-identical to row-at-a-time accumulation).
  void AccumulateRange(size_t begin, size_t end, std::vector<double>& sum,
                       std::vector<double>& comp) const;

  // Same for an arbitrary row-index list (fold slices).
  void AccumulateList(const std::vector<size_t>& rows,
                      std::vector<double>& sum,
                      std::vector<double>& comp) const;

  const data::RegressionDataset* dataset_ = nullptr;
  ObjectiveKind kind_ = ObjectiveKind::kLinear;
  size_t dim_ = 0;
  std::vector<double> sum_;   // compensated global coefficient sums
  std::vector<double> comp_;  // their Neumaier compensation terms
};

}  // namespace fm::core

#endif  // FM_CORE_OBJECTIVE_ACCUMULATOR_H_
