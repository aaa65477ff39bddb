#include "eval/cross_validation.h"

#include <cmath>
#include <limits>
#include <optional>
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
  // produces the same models. Each task re-derives its repeat's fold
  // assignment (an O(n) shuffle, dwarfed by training) instead of holding
  // all repeats × folds index vectors in memory at once.
  const uint64_t train_root = DeriveSeed(options.seed, 1);
  exec::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : exec::ThreadPool::Global();

  // Fold-objective cache: one parallel pass over the dataset's tuples, after
  // which every (repeat, fold) task derives its training objective as
  // global-sum-minus-test-slice in O(|test| · d²) instead of re-summing its
  // (k−1)/k·n training tuples. Shared by all repeats — the global sum does
  // not depend on the fold partition. Both paths sum exactly and round
  // once, so a derived fold objective has the bits a direct Train builds.
  // The cache path skips the per-fold §3 validation, so it is taken only
  // when the whole dataset passes it. The check is row-wise, so a violating
  // dataset takes the direct path, where the per-fold failures surface.
  std::optional<core::ObjectiveAccumulator> cache;
  if (options.use_objective_cache && algorithm.SupportsObjectiveCache(task) &&
      dataset.SatisfiesNormalizationContract(task)) {
    cache.emplace(core::ObjectiveAccumulator::Build(
        dataset, core::ObjectiveKindForTask(task), &pool));
  }

  const auto outcomes = exec::ParallelMap(
      options.repeats * options.folds,
      [&](size_t task_id) {
        const size_t repeat = task_id / options.folds;
        const size_t fold = task_id % options.folds;
        Rng fold_rng(DeriveSeed(options.seed, repeat * 2));
        const data::Split split = std::move(
            data::KFoldSplits(dataset.size(), options.folds, fold_rng)[fold]);

        FoldOutcome outcome;
        Rng train_rng(Rng::Fork(train_root, task_id));
        // The direct path materializes its fold matrix outside the timed
        // region — the figs 7–9 columns measure training.
        data::RegressionDataset train;
        if (!cache.has_value()) train = dataset.Select(split.train);
        // Thread CPU time, not wall-clock: folds train concurrently, and
        // wall-clock would charge each fold for its siblings' contention.
        // On the cache path the objective derivation is part of the cost.
        ThreadCpuStopwatch watch;
        const Result<baselines::TrainedModel> trained =
            cache.has_value()
                ? algorithm.TrainFromObjective(
                      cache->TrainObjectiveForFold(split.test), task, train_rng)
                : algorithm.Train(train, task, train_rng);
        outcome.seconds = watch.Seconds();
        if (!trained.ok()) {
          outcome.status = trained.status();
          return outcome;
        }
        // Index-based test view; bit-identical to materializing the fold.
        outcome.ok = true;
        outcome.error =
            TaskError(task, trained.ValueOrDie().omega, dataset, split.test);
        return outcome;
      },
      pool);

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
