#include "eval/cross_validation.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "eval/metrics.h"
#include "eval/stopwatch.h"
#include "exec/parallel.h"

namespace fm::eval {

namespace {

// Outcome of one (repeat, fold) training task. Aggregation happens serially
// in task order so the final statistics are bit-identical regardless of how
// many threads executed the tasks.
struct FoldOutcome {
  bool ok = false;
  double error = 0.0;
  double seconds = 0.0;
  Status status;
};

}  // namespace

Result<CvResult> CrossValidate(const baselines::RegressionAlgorithm& algorithm,
                               const data::RegressionDataset& dataset,
                               data::TaskKind task, const CvOptions& options) {
  if (options.folds < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  if (dataset.y.size() != dataset.size()) {
    return Status::InvalidArgument(
        std::to_string(dataset.y.size()) + " labels for " +
        std::to_string(dataset.size()) + " rows");
  }
  if (dataset.size() < options.folds) {
    return Status::FailedPrecondition("dataset smaller than fold count");
  }
  if (options.repeats < 1) {
    return Status::InvalidArgument("repeats must be >= 1");
  }
  if (options.repeats > std::numeric_limits<size_t>::max() / options.folds) {
    return Status::InvalidArgument("repeats × folds overflows");
  }

  // One task per (repeat, fold), each with its own RNG substream keyed by
  // the flat task index, so any interleaving of tasks across threads
  // produces the same models. Repeats run one after another, each holding
  // only its own fold assignment: one shuffle, O(n) indices, whatever the
  // repeat count.
  const size_t folds = options.folds;
  const uint64_t train_root = DeriveSeed(options.seed, 1);
  exec::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : exec::ThreadPool::Global();
  const core::ObjectiveKind kind = core::ObjectiveKindForTask(task);

  // Fold bins: one parallel pass per repeat sums each fold's tuples into
  // its own exact bin, and fold f trains on Σ_{g≠f} bin_g. The sums are
  // exact, so a fold objective has the bits a direct Train builds from the
  // materialized training rows. The pass checks the §3 contract as it reads
  // each row; a violating dataset sends the call to the direct path, where
  // each fold's Train reports its own failure.
  bool use_bins =
      options.use_objective_cache && algorithm.SupportsObjectiveCache(task);
  std::vector<FoldOutcome> outcomes;
  for (size_t repeat = 0; repeat < options.repeats; ++repeat) {
    Rng fold_rng(DeriveSeed(options.seed, repeat * 2));
    const data::KFoldPartition partition(dataset.size(), folds, fold_rng);
    std::vector<core::ExactObjectiveSum> bins;
    // The pass's thread CPU time, summed over its tasks; each fold is
    // charged 1/k of it.
    double pass_seconds = 0.0;
    if (use_bins) {
      const std::vector<size_t> fold_of_row = partition.FoldOfEachRow();
      core::ObjectiveBinPass pass(dataset, kind, fold_of_row, folds,
                                  pool.num_threads());
      std::vector<double> task_seconds(pass.tasks());
      exec::ParallelFor(
          pass.tasks(),
          [&](size_t t) {
            ThreadCpuStopwatch watch;
            pass.RunTask(t);
            task_seconds[t] = watch.Seconds();
          },
          pool);
      for (const double seconds : task_seconds) pass_seconds += seconds;
      Result<std::vector<core::ExactObjectiveSum>> summed = pass.Finish();
      use_bins = summed.ok();
      if (use_bins) bins = std::move(summed).ValueOrDie();
    }

    std::vector<FoldOutcome> repeat_outcomes = exec::ParallelMap(
        folds,
        [&](size_t fold) {
          FoldOutcome outcome;
          Rng train_rng(Rng::Fork(train_root, repeat * folds + fold));
          // The direct path materializes its fold matrix outside the timed
          // region — the figs 7–9 columns measure training.
          data::RegressionDataset train;
          if (!use_bins) train = dataset.Select(partition.TrainRows(fold));
          // Thread CPU time, not wall-clock: folds train concurrently, and
          // wall-clock would charge each fold for its siblings' contention.
          ThreadCpuStopwatch watch;
          const Result<baselines::TrainedModel> trained =
              use_bins ? algorithm.TrainFromObjective(
                             core::TrainObjectiveFromBins(bins, fold), task,
                             train_rng)
                       : algorithm.Train(train, task, train_rng);
          outcome.seconds =
              watch.Seconds() + pass_seconds / static_cast<double>(folds);
          if (!trained.ok()) {
            outcome.status = trained.status();
            return outcome;
          }
          // Index-based test view, in shuffled order; bit-identical to
          // materializing the fold.
          outcome.ok = true;
          outcome.error = TaskError(task, trained.ValueOrDie().omega, dataset,
                                    partition.TestRows(fold));
          return outcome;
        },
        pool);
    for (FoldOutcome& outcome : repeat_outcomes) {
      outcomes.push_back(std::move(outcome));
    }
  }

  CvResult result;
  double sum = 0.0;
  double sum_sq = 0.0;
  double time_sum = 0.0;
  Status last_failure = Status::OK();
  for (const FoldOutcome& outcome : outcomes) {
    if (!outcome.ok) {
      ++result.failures;
      last_failure = outcome.status;
      continue;
    }
    sum += outcome.error;
    sum_sq += outcome.error * outcome.error;
    time_sum += outcome.seconds;
    ++result.evaluations;
  }

  if (result.evaluations == 0) {
    return Status::Internal("every cross-validation fold failed; last: " +
                            last_failure.ToString());
  }
  const double n = static_cast<double>(result.evaluations);
  result.mean_error = sum / n;
  result.mean_train_seconds = time_sum / n;
  if (result.evaluations > 1) {
    const double variance =
        std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
    result.stddev_error = std::sqrt(variance);
  }
  return result;
}

}  // namespace fm::eval
