// Serving-layer benchmark: sustained request throughput,
// ingest-to-fresh-model latency of serve::Service (incremental maintenance
// vs full retrain-from-scratch), and the slot-space compaction contract
// under a 10:1 insert:live churn — post-compaction resident slots must
// equal the live count and Objective() must cost what a fresh store of the
// same live tuples costs (gated at ≤ 1.5× in tools/run_bench.py).
//
// Deliberately self-contained (obs::Stopwatch + median-over-repeats, no
// Google Benchmark) so these numbers — and the CI gates — exist on
// machines without libbenchmark-dev. tools/run_bench.py --mode serve
// drives it and re-emits BENCH_serve.json as a CI artifact.
//
// The durable-ingest phase measures the same insert stream against a
// WAL-attached service in each sync mode (none / group-commit batch /
// always), reporting requests/sec, fsync counts, and mean commit-batch
// latency, then proves in-process that Service::Recover rebuilds a
// bitwise-equal service from the snapshot + WAL tail it just wrote.
//
// Usage:
//   bench_serve [--n 100000] [--dim 10] [--repeats 7] [--ingest 20000]
//               [--predicts 20000] [--mixed 10000] [--churn-live 4000]
//               [--durable 8000] [--out BENCH_serve.json]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "baselines/fm_algorithm.h"
#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "obs/clock.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace {

using namespace fm;

data::RegressionDataset RandomDataset(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(-scale, scale);
      z += (j % 2 ? -4.0 : 4.0) * ds.x(i, j);
    }
    ds.y[i] = std::clamp(0.5 * z + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
  }
  return ds;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Every benchmark phase must serve every request successfully — a failing
// request would otherwise be timed on its error path and still count
// toward the requests/sec the CI gate reads.
bool AllOk(const std::vector<serve::Response>& responses, const char* phase) {
  for (const auto& response : responses) {
    if (!response.status.ok()) {
      std::fprintf(stderr, "%s request failed: %s\n", phase,
                   response.status.ToString().c_str());
      return false;
    }
  }
  return true;
}

struct Flags {
  size_t n = 100000;
  size_t dim = 10;
  size_t repeats = 7;
  size_t ingest = 20000;
  size_t predicts = 20000;
  size_t mixed = 10000;
  size_t churn_live = 4000;
  size_t durable = 8000;
  std::string out = "BENCH_serve.json";
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--n") {
      flags.n = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--dim") {
      flags.dim = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--repeats") {
      flags.repeats = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--ingest") {
      flags.ingest = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--predicts") {
      flags.predicts =
          static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--mixed") {
      flags.mixed = static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--churn-live") {
      flags.churn_live =
          static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--durable") {
      flags.durable =
          static_cast<size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--out") {
      flags.out = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const size_t threads = exec::ThreadPool::DefaultThreadCount();
  std::printf(
      "bench_serve: n=%zu dim=%zu repeats=%zu threads=%zu "
      "(self-contained timer, no Google Benchmark needed)\n",
      flags.n, flags.dim, flags.repeats, threads);

  serve::ServiceOptions options;
  options.dim = flags.dim;
  options.task = data::TaskKind::kLinear;
  // The bench retrains many times; give it a budget it cannot exhaust (the
  // numbers measure time, not utility).
  options.total_epsilon = 1e6;
  options.seed = 20120827;
  auto service = serve::Service::Create(options).ValueOrDie();

  // --- bulk bootstrap -----------------------------------------------------
  const data::RegressionDataset base = RandomDataset(flags.n, flags.dim, 1);
  obs::Stopwatch watch;
  if (Status status = service->Bootstrap(base); !status.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const double bootstrap_seconds = watch.Seconds();
  const double bootstrap_rows_per_sec =
      static_cast<double>(flags.n) / bootstrap_seconds;

  // --- ingest through the request engine ----------------------------------
  const data::RegressionDataset stream =
      RandomDataset(flags.ingest, flags.dim, 2);
  std::vector<serve::Request> ingest_log;
  ingest_log.reserve(flags.ingest);
  for (size_t i = 0; i < stream.size(); ++i) {
    ingest_log.push_back(
        serve::Request::Insert(stream.x.RowVector(i), stream.y[i]));
  }
  watch.Reset();
  auto ingest_responses = service->ExecuteLog(ingest_log);
  const double ingest_seconds = watch.Seconds();
  if (!AllOk(ingest_responses, "ingest")) return 1;
  const double ingest_rps =
      static_cast<double>(flags.ingest) / ingest_seconds;

  // Publish a model so predicts have something to read.
  if (!service
           ->ExecuteLog({serve::Request::Train(
               serve::TrainerKind::kFunctionalMechanism, 0.8)})[0]
           .status.ok()) {
    std::fprintf(stderr, "initial train failed\n");
    return 1;
  }

  // --- predict fan-out ----------------------------------------------------
  std::vector<serve::Request> predict_log;
  predict_log.reserve(flags.predicts);
  for (size_t i = 0; i < flags.predicts; ++i) {
    predict_log.push_back(
        serve::Request::Predict(stream.x.RowVector(i % stream.size())));
  }
  watch.Reset();
  auto predict_responses = service->ExecuteLog(predict_log);
  const double predict_seconds = watch.Seconds();
  if (!AllOk(predict_responses, "predict")) return 1;
  const double predict_rps =
      static_cast<double>(flags.predicts) / predict_seconds;

  // --- mixed workload -----------------------------------------------------
  // 1 train per 2000 requests, 1 ingest per 8, predicts otherwise — an
  // HTAP-flavored mix of co-located ingest and analytics.
  std::vector<serve::Request> mixed_log;
  mixed_log.reserve(flags.mixed);
  for (size_t i = 0; i < flags.mixed; ++i) {
    if (i % 2000 == 1999) {
      mixed_log.push_back(serve::Request::Train(
          serve::TrainerKind::kFunctionalMechanism, 0.8));
    } else if (i % 8 == 0) {
      const size_t row = i % stream.size();
      mixed_log.push_back(
          serve::Request::Insert(stream.x.RowVector(row), stream.y[row]));
    } else {
      mixed_log.push_back(
          serve::Request::Predict(stream.x.RowVector(i % stream.size())));
    }
  }
  watch.Reset();
  auto mixed_responses = service->ExecuteLog(mixed_log);
  const double mixed_seconds = watch.Seconds();
  if (!AllOk(mixed_responses, "mixed")) return 1;
  const double mixed_rps = static_cast<double>(flags.mixed) / mixed_seconds;

  // --- ingest-to-fresh-model latency: incremental vs full rebuild ---------
  // Incremental: one insert + one train through the engine — the insert is
  // recorded in O(d), and the train applies it in O(d²) and rounds.
  std::vector<double> incremental_seconds;
  for (size_t r = 0; r < flags.repeats; ++r) {
    const size_t row = r % stream.size();
    std::vector<serve::Request> delta_log;
    delta_log.push_back(
        serve::Request::Insert(stream.x.RowVector(row), stream.y[row]));
    delta_log.push_back(serve::Request::Train(
        serve::TrainerKind::kFunctionalMechanism, 0.8));
    watch.Reset();
    auto delta_responses = service->ExecuteLog(delta_log);
    incremental_seconds.push_back(watch.Seconds());
    if (!delta_responses[1].status.ok()) {
      std::fprintf(stderr, "incremental retrain failed\n");
      return 1;
    }
  }

  // Full rebuild: materialize the live tuples, re-sum the objective from
  // scratch, train — what a batch system pays for a fresh model.
  std::vector<double> rebuild_seconds;
  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  for (size_t r = 0; r < flags.repeats; ++r) {
    Rng rng(Rng::Fork(options.seed, 1000000 + r));
    watch.Reset();
    const data::RegressionDataset live = service->objective().Materialize();
    const auto rebuilt = core::ObjectiveAccumulator::Build(
        live, core::ObjectiveKindForTask(options.task));
    const auto trained = baselines::FmAlgorithm(fm_options)
                             .TrainFromObjective(rebuilt.Global(),
                                                 options.task, rng);
    rebuild_seconds.push_back(watch.Seconds());
    if (!trained.ok()) {
      std::fprintf(stderr, "full rebuild retrain failed\n");
      return 1;
    }
  }

  const double incremental_median = Median(incremental_seconds);
  const double rebuild_median = Median(rebuild_seconds);
  const double speedup = rebuild_median / incremental_median;
  const size_t live = service->objective().live_size();

  // --- slot-space compaction under 10:1 insert:live churn -----------------
  // A second service with auto-compaction disabled absorbs churn_live · 10
  // inserts while seeded-random deletes hold the live set at churn_live, so
  // the un-compacted worst case — slot space growing with total insert
  // history — is visible before one explicit Compact request collapses it
  // back to O(live). Objective() only rounds once the pending work is
  // applied, so its cost must not depend on the holes: the pre- and
  // post-compaction numbers time the same O(d²) rounding.
  const size_t churn_inserts = flags.churn_live * 10;
  serve::ServiceOptions churn_options = options;
  churn_options.auto_compact = false;
  auto churn_service = serve::Service::Create(churn_options).ValueOrDie();
  const data::RegressionDataset churn_stream =
      RandomDataset(churn_inserts, flags.dim, 3);
  Rng victims(4);
  std::vector<uint64_t> live_ids;
  live_ids.reserve(flags.churn_live + 1);
  std::vector<serve::Request> churn_log;
  churn_log.reserve(2 * churn_inserts);
  for (size_t i = 0; i < churn_inserts; ++i) {
    churn_log.push_back(
        serve::Request::Insert(churn_stream.x.RowVector(i),
                               churn_stream.y[i]));
    live_ids.push_back(i);
    while (live_ids.size() > flags.churn_live) {
      const size_t pick =
          static_cast<size_t>(victims.UniformInt(live_ids.size()));
      churn_log.push_back(serve::Request::Delete(live_ids[pick]));
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
    }
  }
  watch.Reset();
  auto churn_responses = churn_service->ExecuteLog(churn_log);
  const double churn_seconds = watch.Seconds();
  if (!AllOk(churn_responses, "churn")) return 1;
  const double churn_rps =
      static_cast<double>(churn_log.size()) / churn_seconds;

  // Objective() derivation is O(d²) once the pending work is applied —
  // microseconds — so time a fixed-count loop per repeat and report the
  // median per-call cost. Takes a copy: Objective() applies the pending
  // work, so it is non-const. One untimed call applies it, so the loop
  // times the rounding alone.
  const auto time_objective = [&](serve::IncrementalObjective store) {
    constexpr size_t kCalls = 512;
    (void)store.Objective();
    std::vector<double> seconds;
    seconds.reserve(flags.repeats);
    for (size_t r = 0; r < flags.repeats; ++r) {
      obs::Stopwatch loop_watch;
      for (size_t c = 0; c < kCalls; ++c) {
        volatile double sink = store.Objective().beta;
        (void)sink;
      }
      seconds.push_back(loop_watch.Seconds() / kCalls);
    }
    return Median(seconds);
  };

  const size_t churn_slots_before = churn_service->objective().slot_count();
  const double churn_objective_pre =
      time_objective(churn_service->objective());

  const auto compact_responses =
      churn_service->ExecuteLog({serve::Request::Compact()});
  if (!AllOk(compact_responses, "compact")) return 1;
  const size_t churn_reclaimed =
      static_cast<size_t>(compact_responses[0].value);
  const size_t churn_slots_after = churn_service->objective().slot_count();
  const double churn_objective_post =
      time_objective(churn_service->objective());

  // Fresh reference: a store fed only the surviving tuples, in order. The
  // compaction contract says the compacted store IS this store, bit for
  // bit — checked here so the perf gate can never pass on a wrong store.
  serve::IncrementalObjective fresh_store(
      flags.dim, core::ObjectiveKindForTask(options.task));
  if (!fresh_store.InsertBatch(churn_service->objective().Materialize())
           .ok()) {
    std::fprintf(stderr, "churn: fresh reference store rejected tuples\n");
    return 1;
  }
  if (!churn_service->objective().StoreStateBitwiseEquals(fresh_store)) {
    std::fprintf(stderr,
                 "churn: post-compaction store is NOT bitwise equal to a "
                 "fresh store of the live tuples\n");
    return 1;
  }
  const double churn_objective_fresh = time_objective(fresh_store);
  const double churn_post_vs_fresh =
      churn_objective_post / churn_objective_fresh;

  // --- durable ingest: WAL group commit + recovery ------------------------
  // The same insert stream through a WAL-attached service in each sync
  // mode, committed in small batches so group commit has batches to group.
  // Mode "none" skips fsync (write(2) still happens per commit), "batch"
  // fsyncs when the window/record budget fills, "always" fsyncs every
  // commit — the spread shows what durability actually costs.
  const data::RegressionDataset durable_stream =
      RandomDataset(flags.durable, flags.dim, 5);
  std::vector<serve::Request> durable_log;
  durable_log.reserve(flags.durable);
  for (size_t i = 0; i < durable_stream.size(); ++i) {
    durable_log.push_back(serve::Request::Insert(
        durable_stream.x.RowVector(i), durable_stream.y[i]));
  }
  constexpr size_t kDurableChunk = 8;

  struct DurableRun {
    double rps = 0.0;
    double mean_commit_ms = 0.0;
    uint64_t commit_batches = 0;
    uint64_t syncs = 0;
    // Fault-path health counters (docs/FAULTS.md). On a healthy volume all
    // of these stay zero/false — tools/run_bench.py --gate enforces it, so
    // a regression that starts tripping the retry/degradation machinery
    // during a clean run is caught as a perf-report failure.
    uint64_t io_retries = 0;
    uint64_t degraded_rejections = 0;
    bool wal_poisoned = false;
    bool ok = false;
    // Full metrics snapshot (Service::MetricsSnapshot JSON) of the run.
    std::string metrics_json;
  };
  const auto scratch_dir = [&](const char* tag) {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / (std::string("fm_bench_wal_") + tag);
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir.string();
  };
  const auto make_durability = [&](const std::string& dir,
                                   serve::WalSyncMode mode) {
    serve::DurabilityOptions durability;
    durability.wal.path = dir + "/requests.fmwal";
    durability.wal.sync = mode;
    durability.snapshot_dir = dir + "/snapshots";
    return durability;
  };
  // `repeat` streams the log through the service that many times inside the
  // timed region (inserts only, so re-ingesting is a valid workload) — the
  // overhead comparison below needs a longer measurement than one smoke-
  // sized pass to rise above write(2) scheduling noise.
  const auto run_durable = [&](serve::WalSyncMode mode,
                               bool enable_metrics = true, size_t repeat = 1) {
    DurableRun result;
    const std::string dir = scratch_dir(serve::WalSyncModeToString(mode));
    const auto durability = make_durability(dir, mode);
    serve::ServiceOptions durable_options = options;
    durable_options.enable_metrics = enable_metrics;
    auto durable_service = serve::Service::Create(durable_options).ValueOrDie();
    if (!durable_service->EnableDurability(durability).ok()) {
      std::fprintf(stderr, "durable(%s): EnableDurability failed\n",
                   serve::WalSyncModeToString(mode));
      return result;
    }
    obs::Stopwatch durable_watch;
    for (size_t pass = 0; pass < repeat; ++pass) {
      for (size_t i = 0; i < durable_log.size(); i += kDurableChunk) {
        const size_t end = std::min(i + kDurableChunk, durable_log.size());
        const std::vector<serve::Request> chunk(
            durable_log.begin() + static_cast<std::ptrdiff_t>(i),
            durable_log.begin() + static_cast<std::ptrdiff_t>(end));
        if (!AllOk(durable_service->ExecuteLog(chunk), "durable ingest")) {
          return result;
        }
      }
    }
    const double seconds = durable_watch.Seconds();
    result.rps =
        static_cast<double>(durable_log.size() * repeat) / seconds;
    result.commit_batches = durable_service->wal()->commit_batches();
    result.syncs = durable_service->wal()->sync_count();
    const io::RetryStats& retries = durable_service->wal()->retry_stats();
    result.io_retries = retries.transient_retries + retries.short_writes;
    result.degraded_rejections = durable_service->degraded_rejections();
    result.wal_poisoned = durable_service->wal()->poisoned();
    result.mean_commit_ms =
        seconds / static_cast<double>(result.commit_batches) * 1e3;
    result.metrics_json = durable_service->MetricsSnapshot();
    result.ok = true;
    return result;
  };
  const DurableRun durable_none = run_durable(serve::WalSyncMode::kNone);
  const DurableRun durable_batch = run_durable(serve::WalSyncMode::kBatch);
  const DurableRun durable_always = run_durable(serve::WalSyncMode::kAlways);
  if (!durable_none.ok || !durable_batch.ok || !durable_always.ok) return 1;
  const uint64_t durable_io_retries = durable_none.io_retries +
                                      durable_batch.io_retries +
                                      durable_always.io_retries;
  const uint64_t durable_degraded = durable_none.degraded_rejections +
                                    durable_batch.degraded_rejections +
                                    durable_always.degraded_rejections;
  const bool durable_poisoned = durable_none.wal_poisoned ||
                                durable_batch.wal_poisoned ||
                                durable_always.wal_poisoned;

  // --- telemetry overhead: metrics on vs off ------------------------------
  // The observability contract's perf half: instrumentation must cost ≈0
  // (one segment clock read + a relaxed atomic add per request). Runs
  // alternate on/off so machine drift lands on both sides equally, and the
  // ratio compares best-of throughput per side — the min-time estimator,
  // which filters scheduler noise far better than a median at these run
  // lengths. Recorded as off-throughput / on-throughput: ~1.00 means
  // metrics are free, 1.02 means they cost 2%.
  // The per-run workloads are small, so best-of needs more samples than
  // the throughput phases to converge; the runs themselves are cheap.
  const size_t overhead_repeats = std::max<size_t>(9, flags.repeats);
  std::vector<double> overhead_durable_on, overhead_durable_off;
  std::vector<double> overhead_churn_on, overhead_churn_off;
  for (size_t r = 0; r < overhead_repeats; ++r) {
    // Alternate which side goes first: each run's dirty-page writeback
    // lands on its successor, so a fixed order would bias one side.
    const bool on_first = (r % 2 == 0);
    const DurableRun first =
        run_durable(serve::WalSyncMode::kNone, on_first, 4);
    const DurableRun second =
        run_durable(serve::WalSyncMode::kNone, !on_first, 4);
    if (!first.ok || !second.ok) return 1;
    overhead_durable_on.push_back(on_first ? first.rps : second.rps);
    overhead_durable_off.push_back(on_first ? second.rps : first.rps);
    for (const bool metrics_on : {on_first, !on_first}) {
      serve::ServiceOptions overhead_options = churn_options;
      overhead_options.enable_metrics = metrics_on;
      auto overhead_service =
          serve::Service::Create(overhead_options).ValueOrDie();
      watch.Reset();
      const auto responses = overhead_service->ExecuteLog(churn_log);
      const double seconds = watch.Seconds();
      if (!AllOk(responses, "churn overhead")) return 1;
      (metrics_on ? overhead_churn_on : overhead_churn_off)
          .push_back(static_cast<double>(churn_log.size()) / seconds);
    }
  }
  const auto best = [](const std::vector<double>& rps) {
    return *std::max_element(rps.begin(), rps.end());
  };
  const double metrics_overhead_durable =
      best(overhead_durable_off) / best(overhead_durable_on);
  const double metrics_overhead_churn =
      best(overhead_churn_off) / best(overhead_churn_on);

  // Recovery: a durable run with a mid-stream checkpoint (snapshot + WAL
  // tail), recovered in-process and byte-compared against an uninterrupted
  // service that executed the same log.
  const std::string recover_dir = scratch_dir("recover");
  auto recover_durability =
      make_durability(recover_dir, serve::WalSyncMode::kNone);
  recover_durability.snapshot_every = flags.durable / 2;
  {
    auto durable_service = serve::Service::Create(options).ValueOrDie();
    if (!durable_service->EnableDurability(recover_durability).ok()) {
      std::fprintf(stderr, "recovery: EnableDurability failed\n");
      return 1;
    }
    for (size_t i = 0; i < durable_log.size(); i += kDurableChunk) {
      const size_t end = std::min(i + kDurableChunk, durable_log.size());
      const std::vector<serve::Request> chunk(
          durable_log.begin() + static_cast<std::ptrdiff_t>(i),
          durable_log.begin() + static_cast<std::ptrdiff_t>(end));
      if (!AllOk(durable_service->ExecuteLog(chunk), "recovery ingest")) {
        return 1;
      }
    }
  }  // destroyed: recovery sees only the files
  auto reference_service = serve::Service::Create(options).ValueOrDie();
  if (!AllOk(reference_service->ExecuteLog(durable_log), "reference")) {
    return 1;
  }
  watch.Reset();
  auto recovered_or = serve::Service::Recover(options, recover_durability);
  const double recovery_seconds = watch.Seconds();
  if (!recovered_or.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered_or.status().ToString().c_str());
    return 1;
  }
  const auto recovered = std::move(recovered_or).ValueOrDie();
  const bool recovered_bitwise =
      recovered->log_position() == reference_service->log_position() &&
      recovered->objective().StoreStateBitwiseEquals(
          reference_service->objective());
  if (!recovered_bitwise) {
    std::fprintf(stderr,
                 "recovery: recovered service is NOT bitwise equal to the "
                 "uninterrupted one\n");
    return 1;
  }

  std::printf("\n%-34s %14s\n", "metric", "value");
  std::printf("%-34s %11.0f /s\n", "bootstrap rows", bootstrap_rows_per_sec);
  std::printf("%-34s %11.0f /s\n", "ingest requests", ingest_rps);
  std::printf("%-34s %11.0f /s\n", "predict requests", predict_rps);
  std::printf("%-34s %11.0f /s\n", "mixed requests", mixed_rps);
  std::printf("%-34s %12.3f ms\n", "ingest->fresh model (incremental)",
              incremental_median * 1e3);
  std::printf("%-34s %12.3f ms\n", "ingest->fresh model (full rebuild)",
              rebuild_median * 1e3);
  std::printf("%-34s %12.2fx\n", "incremental vs full rebuild", speedup);
  std::printf("%-34s %11.0f /s\n", "churn requests", churn_rps);
  std::printf("%-34s %8zu -> %zu\n", "churn slots (compaction)",
              churn_slots_before, churn_slots_after);
  std::printf("%-34s %12.3f us\n", "objective, pre-compaction",
              churn_objective_pre * 1e6);
  std::printf("%-34s %12.3f us\n", "objective, post-compaction",
              churn_objective_post * 1e6);
  std::printf("%-34s %12.3f us\n", "objective, fresh store",
              churn_objective_fresh * 1e6);
  std::printf("%-34s %12.2fx\n", "objective post vs fresh",
              churn_post_vs_fresh);
  std::printf("%-34s %11.0f /s\n", "durable ingest (sync=none)",
              durable_none.rps);
  std::printf("%-34s %11.0f /s\n", "durable ingest (sync=batch)",
              durable_batch.rps);
  std::printf("%-34s %11.0f /s\n", "durable ingest (sync=always)",
              durable_always.rps);
  std::printf("%-34s %12.3f ms (%llu syncs / %llu commits)\n",
              "commit batch (sync=batch)", durable_batch.mean_commit_ms,
              static_cast<unsigned long long>(durable_batch.syncs),
              static_cast<unsigned long long>(durable_batch.commit_batches));
  std::printf("%-34s %12.3f ms (%llu syncs / %llu commits)\n",
              "commit batch (sync=always)", durable_always.mean_commit_ms,
              static_cast<unsigned long long>(durable_always.syncs),
              static_cast<unsigned long long>(durable_always.commit_batches));
  std::printf("%-34s %12.3f ms (snapshot + WAL tail, bitwise-verified)\n",
              "recovery", recovery_seconds * 1e3);
  std::printf("%-34s %12.3fx (off/on throughput, durable sync=none)\n",
              "metrics overhead, durable ingest", metrics_overhead_durable);
  std::printf("%-34s %12.3fx (off/on throughput)\n",
              "metrics overhead, churn", metrics_overhead_churn);
  std::printf("%-34s %8llu retries / %llu degraded / %s\n",
              "fault counters (must be clean)",
              static_cast<unsigned long long>(durable_io_retries),
              static_cast<unsigned long long>(durable_degraded),
              durable_poisoned ? "POISONED" : "not poisoned");

  if (!flags.out.empty()) {
    std::FILE* f = std::fopen(flags.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"description\": \"serve::Service throughput, "
                 "ingest-to-fresh-model latency (incremental objective "
                 "maintenance vs full retrain-from-scratch), and slot-space "
                 "compaction under 10:1 insert:live churn (medians over "
                 "repeats, self-contained timer)\",\n"
                 "  \"n\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"live_tuples\": %zu,\n"
                 "  \"threads\": %zu,\n"
                 "  \"repeats\": %zu,\n"
                 "  \"bootstrap_rows_per_sec\": %.1f,\n"
                 "  \"ingest_requests_per_sec\": %.1f,\n"
                 "  \"predict_requests_per_sec\": %.1f,\n"
                 "  \"mixed_requests_per_sec\": %.1f,\n"
                 "  \"incremental_retrain_seconds\": %.9f,\n"
                 "  \"full_rebuild_seconds\": %.9f,\n"
                 "  \"incremental_vs_full_speedup\": %.3f,\n"
                 "  \"churn_total_inserts\": %zu,\n"
                 "  \"churn_live_tuples\": %zu,\n"
                 "  \"churn_requests_per_sec\": %.1f,\n"
                 "  \"churn_slots_reclaimed\": %zu,\n"
                 "  \"churn_slots_before_compaction\": %zu,\n"
                 "  \"churn_slots_after_compaction\": %zu,\n"
                 "  \"churn_objective_pre_compaction_seconds\": %.9f,\n"
                 "  \"churn_objective_post_compaction_seconds\": %.9f,\n"
                 "  \"churn_objective_fresh_seconds\": %.9f,\n"
                 "  \"churn_post_vs_fresh_ratio\": %.3f,\n"
                 "  \"churn_compacted_bitwise_equals_fresh\": true,\n"
                 "  \"durable_ingest_requests\": %zu,\n"
                 "  \"durable_commit_chunk\": %zu,\n"
                 "  \"durable_ingest_rps_sync_none\": %.1f,\n"
                 "  \"durable_ingest_rps_sync_batch\": %.1f,\n"
                 "  \"durable_ingest_rps_sync_always\": %.1f,\n"
                 "  \"durable_commit_ms_sync_batch\": %.6f,\n"
                 "  \"durable_commit_ms_sync_always\": %.6f,\n"
                 "  \"durable_syncs_sync_batch\": %llu,\n"
                 "  \"durable_syncs_sync_always\": %llu,\n"
                 "  \"durable_commit_batches\": %llu,\n"
                 "  \"durable_transient_io_retries\": %llu,\n"
                 "  \"durable_degraded_rejections\": %llu,\n"
                 "  \"durable_wal_poisoned\": %s,\n"
                 "  \"recovery_seconds\": %.9f,\n"
                 "  \"recovered_bitwise_equal\": true,\n"
                 "  \"metrics_overhead_durable_ratio\": %.4f,\n"
                 "  \"metrics_overhead_churn_ratio\": %.4f,\n"
                 "  \"metrics\": %s\n"
                 "}\n",
                 flags.n, flags.dim, live, threads, flags.repeats,
                 bootstrap_rows_per_sec, ingest_rps, predict_rps, mixed_rps,
                 incremental_median, rebuild_median, speedup, churn_inserts,
                 flags.churn_live, churn_rps, churn_reclaimed,
                 churn_slots_before, churn_slots_after, churn_objective_pre,
                 churn_objective_post, churn_objective_fresh,
                 churn_post_vs_fresh, flags.durable, kDurableChunk,
                 durable_none.rps, durable_batch.rps, durable_always.rps,
                 durable_batch.mean_commit_ms, durable_always.mean_commit_ms,
                 static_cast<unsigned long long>(durable_batch.syncs),
                 static_cast<unsigned long long>(durable_always.syncs),
                 static_cast<unsigned long long>(
                     durable_batch.commit_batches),
                 static_cast<unsigned long long>(durable_io_retries),
                 static_cast<unsigned long long>(durable_degraded),
                 durable_poisoned ? "true" : "false", recovery_seconds,
                 metrics_overhead_durable, metrics_overhead_churn,
                 durable_batch.metrics_json.c_str());
    std::fclose(f);
    std::printf("\nwrote %s\n", flags.out.c_str());
  }
  return 0;
}
