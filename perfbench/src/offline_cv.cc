// offline_cv: the paper's §7 job — repeated 5-fold eval::CrossValidate of
// the Functional Mechanism on the seeded synthetic census data, logistic at
// d = 14 with the fold-objective cache on. A traced run replays each call
// through the functions CrossValidate calls, in the same order, and runs
// the serve-layer probes at this workload's shape.
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>

#include "baselines/fm_algorithm.h"
#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "eval/cross_validation.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "shadow.h"

namespace perfbench {

namespace {

constexpr size_t kRows = 60000;
constexpr size_t kFolds = 5;
constexpr size_t kRepeats = 1;
constexpr int kAttributes = 14;  // the largest Fig 7 dimensionality
constexpr size_t kDigestCalls = 8;
constexpr fm::data::TaskKind kTask = fm::data::TaskKind::kLogistic;

fm::eval::CvOptions CallOptions(uint64_t seed, uint64_t call) {
  fm::eval::CvOptions cv;
  cv.folds = kFolds;
  cv.repeats = kRepeats;
  cv.seed = fm::DeriveSeed(seed, 100 + call);
  cv.use_objective_cache = true;
  return cv;
}

void AddResult(Digest& digest, const fm::eval::CvResult& r) {
  digest.AddDouble(r.mean_error);
  digest.AddDouble(r.stddev_error);
  digest.AddBytes(&r.evaluations, sizeof r.evaluations);
  digest.AddBytes(&r.failures, sizeof r.failures);
}

// Generates and normalises the census dataset.
bool LoadDataset(uint64_t seed, fm::data::RegressionDataset* dataset) {
  auto table = fm::data::CensusGenerator::Generate(
      fm::data::CensusGenerator::US(), kRows, fm::DeriveSeed(seed, 1));
  if (!table.ok()) {
    std::fprintf(stderr, "census generation failed: %s\n",
                 table.status().ToString().c_str());
    return false;
  }
  auto prepared = fm::eval::PrepareTask(table.ValueOrDie(), kAttributes, kTask);
  if (!prepared.ok()) {
    std::fprintf(stderr, "dataset preparation failed: %s\n",
                 prepared.status().ToString().c_str());
    return false;
  }
  *dataset = std::move(prepared).ValueOrDie();
  return true;
}

struct FoldResult {
  bool ok = false;
  double error = 0.0;
  TrainRecord train;
};

// CrossValidate's steps through their public functions, with spans.
// Returns the mean error, aggregated in task order as CrossValidate does.
double ReplayCrossValidate(const fm::baselines::RegressionAlgorithm& algorithm,
                           const fm::data::RegressionDataset& dataset,
                           const fm::eval::CvOptions& cv,
                           fm::exec::ThreadPool& pool,
                           std::vector<TrainRecord>* trains) {
  Span call(kCvCall, cv.folds * cv.repeats);
  std::optional<fm::core::ObjectiveAccumulator> cache;
  {
    Span span(kAccumBuild);
    cache.emplace(fm::core::ObjectiveAccumulator::Build(
        dataset, fm::core::ObjectiveKindForTask(kTask), &pool));
  }
  const uint64_t train_root = fm::DeriveSeed(cv.seed, 1);
  std::vector<FoldResult> outcomes;
  {
    Span span(kParallelMap, cv.folds * cv.repeats);
    outcomes = fm::exec::ParallelMap(
        cv.repeats * cv.folds,
        [&](size_t task_id) {
          Span task(kFoldTask);
          const size_t repeat = task_id / cv.folds;
          const size_t fold = task_id % cv.folds;
          fm::data::Split split;
          {
            Span s(kKFoldSplit);
            fm::Rng fold_rng(fm::DeriveSeed(cv.seed, repeat * 2));
            split = std::move(fm::data::KFoldSplits(dataset.size(), cv.folds,
                                                    fold_rng)[fold]);
          }
          FoldResult out;
          out.train.rng_seed = fm::Rng::Fork(train_root, task_id);
          out.train.epsilon = 0.8;
          fm::Rng train_rng(out.train.rng_seed);
          {
            Span s(kFoldObjective);
            out.train.objective = cache->TrainObjectiveForFold(split.test);
          }
          fm::Result<fm::baselines::TrainedModel> trained =
              fm::Status::Internal("unset");
          {
            Span s(kFitObjective);
            trained = algorithm.TrainFromObjective(out.train.objective, kTask,
                                                   train_rng);
          }
          if (!trained.ok()) return out;
          out.ok = true;
          out.train.omega = trained.ValueOrDie().omega;
          Span s(kTaskError);
          out.error =
              fm::eval::TaskError(kTask, out.train.omega, dataset, split.test);
          return out;
        },
        pool);
  }
  double sum = 0.0;
  size_t n = 0;
  for (FoldResult& outcome : outcomes) {
    if (!outcome.ok) continue;
    sum += outcome.error;
    ++n;
    trains->push_back(std::move(outcome.train));
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

int RunOfflineCv(const Options& opt, RunResult* result) {
  const bool traced = opt.trace;
  const std::string dir = opt.scratch + "/offline_cv";
  fm::exec::ThreadPool& global = fm::exec::ThreadPool::Global();
  std::unique_ptr<fm::exec::ThreadPool> replay_pool;
  if (traced) {
    replay_pool = std::make_unique<fm::exec::ThreadPool>(global.num_threads());
  }

  // Set-up: generate and normalise the dataset, five times.
  std::vector<double> setup_s;
  fm::data::RegressionDataset dataset;
  for (int r = 0; r < 5; ++r) {
    const int64_t start = NowNs();
    if (!LoadDataset(opt.seed, &dataset)) return 1;
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  fm::core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  const fm::baselines::FmAlgorithm algorithm(fm_options);

  std::vector<double> call_us;
  std::vector<double> train_us;
  uint64_t ok_folds = 0;
  int64_t call_ns = 0;
  Digest digest;
  uint64_t digest_calls = 0;
  double tasks_submitted = 0.0;
  uint64_t replay_mismatches = 0;
  uint64_t train_mismatches = 0, trimmed = 0, fits = 0;
  const fm::serve::ServiceOptions shape =
      BenchServiceOptions(dataset.dim(), kTask);

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  for (uint64_t call = 0; NowNs() < deadline; ++call) {
    const fm::eval::CvOptions cv = CallOptions(opt.seed, call);
    const double tasks_before = static_cast<double>(global.tasks_submitted());
    const int64_t t0 = NowNs();
    const auto cv_result =
        fm::eval::CrossValidate(algorithm, dataset, kTask, cv);
    const int64_t elapsed = NowNs() - t0;
    tasks_submitted +=
        static_cast<double>(global.tasks_submitted()) - tasks_before;
    call_ns += elapsed;
    call_us.push_back(static_cast<double>(elapsed) / 1e3);
    result->attempted += kFolds * kRepeats;
    if (!cv_result.ok()) {
      result->failed += kFolds * kRepeats;
      result->check_failures.push_back("CrossValidate failed: " +
                                       cv_result.status().ToString());
      continue;
    }
    const fm::eval::CvResult& r = cv_result.ValueOrDie();
    ok_folds += r.evaluations;
    result->failed += r.failures;
    if (r.evaluations + r.failures != kFolds * kRepeats) {
      result->Fail("CrossValidate reported the wrong number of folds");
    }
    train_us.push_back(r.mean_train_seconds * 1e6);
    if (digest_calls < kDigestCalls) {
      AddResult(digest, r);
      ++digest_calls;
    }
    if (traced) {
      std::vector<TrainRecord> trains;
      const double replayed = ReplayCrossValidate(algorithm, dataset, cv,
                                                  *replay_pool, &trains);
      if (std::memcmp(&replayed, &r.mean_error, sizeof replayed) != 0) {
        ++replay_mismatches;
      }
      train_mismatches += ProbeTrainPath(trains, shape, &trimmed, &fits);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double measured_s = static_cast<double>(call_ns) / 1e9;
  const double ops_per_s = static_cast<double>(ok_folds) / measured_s;

  // Determinism: the first calls again on a one-thread pool.
  {
    fm::exec::ThreadPool one(1);
    Digest single;
    for (uint64_t call = 0; call < digest_calls; ++call) {
      fm::eval::CvOptions cv = CallOptions(opt.seed, call);
      cv.pool = &one;
      const auto r = fm::eval::CrossValidate(algorithm, dataset, kTask, cv);
      if (r.ok()) AddResult(single, r.ValueOrDie());
    }
    if (single.value() != digest.value()) {
      result->Fail("CrossValidate results differ between FM_THREADS=1 and " +
                   std::to_string(global.num_threads()));
    }
  }

  // A restarted job reloads its dataset and rebuilds the fold-objective
  // cache before it can fit a fold; the job keeps no durable state.
  std::vector<double> restart_s;
  for (int r = 0; r < 9; ++r) {
    const int64_t t0 = NowNs();
    fm::data::RegressionDataset reloaded;
    if (!LoadDataset(opt.seed, &reloaded)) return 1;
    const auto cache = fm::core::ObjectiveAccumulator::Build(
        reloaded, fm::core::ObjectiveKindForTask(kTask));
    restart_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (cache.size() != dataset.size()) result->Fail("cache rebuild size");
  }

  if (traced) {
    if (replay_mismatches > 0) {
      result->Fail("traced CrossValidate replay diverged in " +
                   std::to_string(replay_mismatches) + " calls");
    }
    if (train_mismatches > 0) {
      result->Fail("FitQuadratic did not reproduce " +
                   std::to_string(train_mismatches) + " fold models");
    }
    // Serve-layer probes at this workload's shape: a store of the census
    // tuples and a short predict/insert/train log over them.
    Shadow shadow(shape, replay_pool.get(), opt.plant_delete_delay_us);
    const int64_t boot = NowNs();
    if (!shadow.Bootstrap(dataset).ok()) {
      result->Fail("census tuples rejected by the store");
    }
    const double bootstrap_ns = static_cast<double>(NowNs() - boot);
    size_t row = 0;
    uint64_t calls = 0;
    const auto next_call = [&]() {
      std::vector<fm::serve::Request> log;
      if (calls++ % 32 == 0) {
        log.push_back(fm::serve::Request::Train(
            fm::serve::TrainerKind::kFunctionalMechanism, 0.8));
        return log;
      }
      for (size_t k = 0; k < 64; ++k, row = (row + 1) % dataset.size()) {
        const fm::linalg::Vector x = dataset.x.RowVector(row);
        log.push_back(k % 8 == 0
                          ? fm::serve::Request::Insert(x, dataset.y[row])
                          : fm::serve::Request::Predict(x));
      }
      return log;
    };
    TraceSetPhase(kProbe);
    for (int c = 0; c < 16; ++c) (void)shadow.Execute(next_call());
    (void)shadow.TakeTrains();
    ProbeInput probe;
    probe.shadow = &shadow;
    probe.next_call = next_call;
    probe.probe_dir = dir + "/probe";
    probe.max_probe_records = 4096;
    probe.task = kTask;
    LayerInputs layers;
    layers.probe = RunLayerProbes(probe);
    layers.root = kCvCall;
    layers.untraced_call_ns = static_cast<double>(call_ns);
    layers.tasks_per_op =
        tasks_submitted / static_cast<double>(result->attempted);
    layers.insert_ns_per_row =
        bootstrap_ns / static_cast<double>(dataset.size());
    layers.trimmed = trimmed;
    layers.fits = fits;
    layers.wal_records = layers.probe.wal_records;
    layers.wal_commits = layers.probe.wal_commits;
    layers.wal_bytes = layers.probe.wal_bytes;
    layers.snapshot_writes = layers.probe.snapshot_writes;
    layers.snapshot_bytes = layers.probe.snapshot_bytes;
    EmitLayerMetrics(layers, result);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  } else {
    const TailPick tail = PickTail(call_us);
    if (!tail.valid) result->Fail("fewer than 11 calls: no tail percentile");
    result->Add("ops_per_s", ops_per_s, "1/s");
    result->Add("call_p50_us", Median(call_us), "us");
    result->AddReportOnly("call_tail_us", tail.value, "us");
    result->AddReportOnly("train_p50_us", Median(train_us), "us");
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("recovery_s", Median(restart_s), "s");
    result->Add("peak_rss_mb", peak_rss_mb, "MB");
    char line[256];
    std::snprintf(line, sizeof line,
                  "call_tail_us is p%g of %zu calls (%zu beyond)",
                  tail.percentile, tail.samples, tail.beyond);
    result->Note(line);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "%zu CrossValidate calls (%zu folds x %zu repeat, n=%zu, "
                "d=%zu), %.3f s in calls",
                call_us.size(), kFolds, kRepeats, dataset.size(),
                dataset.dim(), measured_s);
  result->Note(line);
  result->Note("train_p50_us is the median per-fold training time "
               "(CvResult::mean_train_seconds); recovery_s is a restart: "
               "reload the dataset and rebuild the fold-objective cache");
  return 0;
}

}  // namespace perfbench
