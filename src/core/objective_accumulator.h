#ifndef FM_CORE_OBJECTIVE_ACCUMULATOR_H_
#define FM_CORE_OBJECTIVE_ACCUMULATOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/result.h"
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

/// The task whose §3 contract `kind`'s tuples obey: the inverse of
/// ObjectiveKindForTask.
inline data::TaskKind TaskForObjectiveKind(ObjectiveKind kind) {
  return kind == ObjectiveKind::kLinear ? data::TaskKind::kLinear
                                        : data::TaskKind::kLogistic;
}

// ---------------------------------------------------------------------------
// The exact objective sum shared by the offline fold cache below and the
// online serve::IncrementalObjective.
// ---------------------------------------------------------------------------

/// Tuples per chunk of parallel work: both callers cut their work into
/// chunks of at most this many tuples, which SumChunks deals to pool tasks.
inline constexpr size_t kObjectiveShardRows = 1024;

/// Number of flat coefficients for dimensionality `dim`: the M upper
/// triangle in row-major order, then α, then β.
inline constexpr size_t NumObjectiveCoefficients(size_t dim) {
  return dim * (dim + 1) / 2 + dim + 1;
}

/// The per-tuple coefficient weights of an objective that is a sum over
/// tuples: tuple (x, y) contributes m_scale · x xᵀ to M,
/// (alpha_offset + alpha_label · y) · x to α, and
/// beta_offset + beta_label_square · y² to β.
struct ObjectiveWeights {
  double m_scale = 0.0;
  double alpha_offset = 0.0;
  double alpha_label = 0.0;
  double beta_offset = 0.0;
  double beta_label_square = 0.0;
};

/// The weights of `kind`.
ObjectiveWeights ObjectiveWeightsFor(ObjectiveKind kind);

/// A signed 128-bit integer (a GCC/Clang extension; `__extension__` keeps
/// -Wpedantic quiet).
__extension__ typedef __int128 Int128;

/// units · 2⁻⁸², correctly rounded to the nearest double (ties to even).
double RoundFixedPoint(Int128 units);

/// The exact sum of per-tuple objective contributions — the state both FM
/// objectives reduce to, since each is a plain sum over tuples (§4.2, §5.3).
///
/// Every coefficient is one signed integer in units of 2⁻⁸². A tuple's term
/// t enters as RN(t·2³²)·2⁵⁰ + RN((t·2³² − RN(t·2³²))·2⁵⁰), a function of t
/// alone that is within 2⁻⁸³ of t (linalg::kernels::
/// ExactTupleAccumulateBatch). Integer addition is exact and commutative,
/// so the sum is a pure function of the multiset of tuples added minus the
/// multiset subtracted: removing a tuple undoes its addition bit for bit,
/// and no thread count, chunking or order can change a bit. Round()
/// converts each coefficient with one correct rounding, so the result is
/// within 1 ulp of the exact real sum whenever the accumulated splitting
/// error (n·2⁻⁸³ for n tuples) is below half an ulp.
///
/// Tuples must satisfy the §3 normalization contract (finite, ‖x‖₂ ≤ 1,
/// |y| ≤ 1), and each weight bound of AddTuples must be at most 2, which
/// together bound every term below 4 in magnitude. The sum then cannot
/// overflow below 2⁴³ tuples.
class ExactObjectiveSum {
 public:
  ExactObjectiveSum() = default;
  /// The zero sum over `dim`-dimensional tuples.
  explicit ExactObjectiveSum(size_t dim);

  size_t dim() const { return dim_; }

  /// Adds the contributions of the tuples (xs[i], ys[i]), i < count, under
  /// `weights`, or removes them when `subtract` is set. The weights must
  /// satisfy |m_scale| ≤ 2, |alpha_offset| + |alpha_label| ≤ 2 and
  /// |beta_offset| + |beta_label_square| ≤ 2 (checked). O(count · d²),
  /// serial.
  void AddTuples(const ObjectiveWeights& weights, const double* const* xs,
                 const double* ys, size_t count, bool subtract = false);

  /// Adds another sum of the same dimensionality. O(d²).
  void Add(const ExactObjectiveSum& other);

  /// The correctly rounded coefficients, M mirrored from its upper
  /// triangle. O(d²).
  opt::QuadraticModel Round() const;

  bool operator==(const ExactObjectiveSum& other) const {
    return dim_ == other.dim_ && units_ == other.units_;
  }
  bool operator!=(const ExactObjectiveSum& other) const {
    return !(*this == other);
  }

 private:
  size_t dim_ = 0;
  std::vector<Int128> units_;  // per flat coefficient, in units of 2⁻⁸²
};

/// Runs fill(c, partial) for each chunk c < num_chunks on `pool` (nullptr →
/// the global FM_THREADS pool), inline into `sum` when there is only one
/// chunk, and adds the partials into *sum. Each pool task fills one partial,
/// starting from the zero sum, with every chunk it is dealt. The result is
/// exact, so it does not depend on the pool.
void SumChunks(size_t num_chunks,
               const std::function<void(size_t, ExactObjectiveSum*)>& fill,
               ExactObjectiveSum* sum, exec::ThreadPool* pool);

/// The checked k-bin sum — the one pass every objective in the library is
/// summed by. It reads a dataset's rows in row order, checks each row's §3
/// contract (data::CheckNormalizationContract), and adds the row's
/// contribution under `kind` into bin bin_of_row[r], or into bin 0 when
/// bin_of_row is empty. Both regression objectives are plain sums over
/// tuples (§4.2, §5.3), so with one bin per cross-validation fold, fold f's
/// training objective is Σ_{g≠f} bin_g: O(k · d²) per fold after one
/// O(n · d²) pass per repeat, and bit-identical to a fresh sum over the
/// fold's training rows, because every sum is exact.
///
/// The rows are cut into chunks of kObjectiveShardRows and dealt
/// round-robin to tasks(): task t sums chunks t, t + tasks(), … into
/// partial bins of its own, in increasing row order, and stops at its
/// first violating row. The caller runs each task once, on any thread
/// (SumObjectiveBins runs them on a pool), then calls Finish. The bins do
/// not depend on the task count or on which thread ran which task.
class ObjectiveBinPass {
 public:
  /// A pass of at most max_tasks ≥ 1 tasks. bin_of_row must be empty or
  /// hold one bin below num_bins per row (checked). The dataset and
  /// bin_of_row must outlive the pass.
  ObjectiveBinPass(const data::RegressionDataset& dataset, ObjectiveKind kind,
                   const std::vector<size_t>& bin_of_row, size_t num_bins,
                   size_t max_tasks);

  size_t tasks() const { return partials_.size(); }

  /// Runs task t < tasks(). Distinct tasks may run concurrently.
  void RunTask(size_t t);

  /// Once every task has run: the num_bins sums. InvalidArgument when y
  /// does not hold one label per row, or naming the dataset's first row
  /// that violates the §3 contract — the same row for every task count.
  Result<std::vector<ExactObjectiveSum>> Finish() const;

 private:
  struct Partial {
    std::vector<ExactObjectiveSum> bins;
    bool ran = false;
    size_t violation_row = 0;  // meaningful when !violation.ok()
    Status violation;
  };

  const data::RegressionDataset& dataset_;
  ObjectiveKind kind_;
  const std::vector<size_t>& bin_of_row_;
  size_t num_bins_;
  std::vector<Partial> partials_;  // one per task
};

/// Runs every task of an ObjectiveBinPass on `pool` (nullptr → the global
/// FM_THREADS pool) and returns its Finish().
Result<std::vector<ExactObjectiveSum>> SumObjectiveBins(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    const std::vector<size_t>& bin_of_row, size_t num_bins,
    exec::ThreadPool* pool = nullptr);

/// Fold `fold`'s training objective from one bin per fold: Σ_{g≠fold}
/// bins[g], rounded once per coefficient. O(k · d²).
opt::QuadraticModel TrainObjectiveFromBins(
    const std::vector<ExactObjectiveSum>& bins, size_t fold);

/// The objective of all of `dataset`'s tuples: the one-bin pass, rounded
/// once per coefficient. This is how every direct fit builds its objective,
/// so a fit on a dataset and a fit on a fold summed from bins see the same
/// bits. InvalidArgument as ObjectiveBinPass::Finish.
Result<opt::QuadraticModel> CheckedObjective(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool = nullptr);

/// A dataset's global objective sum, kept to derive fold objectives by
/// subtraction: a fold's training objective is the global sum minus its
/// held-out tuples' contribution, f_train(ω) = f_D(ω) − f_test(ω), exactly.
/// eval::CrossValidate sums fold bins instead (ObjectiveBinPass), which
/// reads each tuple once per repeat rather than the test slices a second
/// time; the two give the same bits.
///
/// The accumulator keeps a pointer to the dataset it was built from (to read
/// test-slice tuples); the dataset must outlive it.
class ObjectiveAccumulator {
 public:
  /// Sums all tuple contributions of `dataset` on `pool` (nullptr → the
  /// global FM_THREADS pool): the one-bin pass, O(n · d²). The dataset must
  /// satisfy the §3 normalization contract (checked; aborts otherwise).
  static ObjectiveAccumulator Build(const data::RegressionDataset& dataset,
                                    ObjectiveKind kind,
                                    exec::ThreadPool* pool = nullptr);

  ObjectiveKind kind() const { return kind_; }
  /// Feature dimensionality d.
  size_t dim() const { return sum_.dim(); }
  /// Number of tuples accumulated.
  size_t size() const { return dataset_ == nullptr ? 0 : dataset_->size(); }

  /// The rounded dataset-global objective: CheckedObjective's bits.
  opt::QuadraticModel Global() const;

  /// The training objective of the fold whose held-out (test) tuples are
  /// `test_rows`: the cached global sum minus the test slice, exactly.
  /// O(|test_rows| · d²).
  opt::QuadraticModel TrainObjectiveForFold(
      const std::vector<size_t>& test_rows) const;

 private:
  ObjectiveAccumulator() = default;

  const data::RegressionDataset* dataset_ = nullptr;
  ObjectiveKind kind_ = ObjectiveKind::kLinear;
  ExactObjectiveSum sum_;  // the dataset-global sum
};

}  // namespace fm::core

#endif  // FM_CORE_OBJECTIVE_ACCUMULATOR_H_
