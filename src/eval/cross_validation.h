#ifndef FM_EVAL_CROSS_VALIDATION_H_
#define FM_EVAL_CROSS_VALIDATION_H_

#include <cstdint>

#include "baselines/regression_algorithm.h"
#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::eval {

/// §7's evaluation protocol: repeated k-fold cross-validation (the paper
/// uses 5-fold × 50 repeats; the repository defaults are environment-tunable
/// — see experiment.h).
struct CvOptions {
  size_t folds = 5;
  size_t repeats = 3;
  uint64_t seed = 0x5eedf01d;
  /// Pool the folds × repeats training tasks run on; nullptr → the global
  /// FM_THREADS-sized pool. Results are bit-identical for every pool size
  /// (each task draws from its own Rng::Fork substream).
  exec::ThreadPool* pool = nullptr;
  /// When true (the default), algorithms that consume training tuples only
  /// through the fold-decomposable quadratic objective (FM, Truncated,
  /// linear NoPrivacy) are trained from fold bins: one parallel pass per
  /// repeat sums each fold's tuples into its own exact bin
  /// (core::ObjectiveBinPass), and fold f trains on Σ_{g≠f} bin_g, instead
  /// of k re-summations of the training rows per repeat. A pure speed
  /// switch: both paths sum exactly and round once, so the result is
  /// bit-identical either way, and across thread counts.
  bool use_objective_cache = true;
};

/// Aggregated outcome of one algorithm over all folds × repeats.
struct CvResult {
  /// Mean of the per-fold §7 metric (MSE or misclassification rate).
  double mean_error = 0.0;
  /// Sample standard deviation of the per-fold metric.
  double stddev_error = 0.0;
  /// Mean training time per fold, seconds (§7.4's metric), measured on the
  /// training thread's CPU clock so concurrent folds don't inflate each
  /// other's readings. With fold bins, each fold is also charged 1/k of its
  /// repeat's bin pass (thread CPU time summed over the pass's tasks).
  double mean_train_seconds = 0.0;
  /// folds × repeats that produced a model.
  size_t evaluations = 0;
  /// Train() invocations that returned an error (excluded from the means).
  size_t failures = 0;
};

/// Runs `algorithm` through repeated k-fold cross-validation on `dataset`.
/// Repeats run in order; each shuffles the rows once (data::KFoldPartition)
/// and trains its k folds concurrently on options.pool (or the global pool).
/// Randomness (fold assignment per repeat, mechanism noise per fold) is
/// derived deterministically from options.seed via substreams, so the
/// statistics are bit-identical regardless of thread count. Individual
/// Train failures are tolerated and counted; the call fails only when every
/// fold fails, y does not hold one label per row, the dataset is too small
/// for the requested fold count, or repeats × folds overflows.
Result<CvResult> CrossValidate(const baselines::RegressionAlgorithm& algorithm,
                               const data::RegressionDataset& dataset,
                               data::TaskKind task, const CvOptions& options);

}  // namespace fm::eval

#endif  // FM_EVAL_CROSS_VALIDATION_H_
