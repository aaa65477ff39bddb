// Online DP-regression serving walkthrough (docs/SERVING.md): one
// serve::Service absorbing a mixed ingest + train + predict + delete
// workload, with the three guarantees the layer makes checked on the spot:
//
//   1. Incremental maintenance is honest: after hundreds of inserts and a
//      delete, the maintained objective — and the model trained from it —
//      is within 1 ulp per coefficient of a full recompute from the raw
//      tuples (bitwise, in fact, against the same slot layout; ≤ 1 ulp
//      against the dense offline accumulator).
//   2. The privacy ledger balances exactly: spent = Σ committed charges,
//      total = spent + remaining, and nothing is pending when the log ends.
//   3. Serving is deterministic: rerunning this binary reproduces every
//      byte (training randomness comes from the request's log position) —
//      and every byte is identical across FM_THREADS (diffed in CI).
//   4. Compaction is invisible to clients: after a burst of deletes, one
//      Request::Compact collapses the slot space to exactly the live
//      count, the store comes out bit-identical to a fresh store fed the
//      live tuples in order, and previously issued tuple ids keep working.
//   5. Crashes are survivable: with durability enabled every request batch
//      is written ahead to a WAL before it executes, checkpoints snapshot
//      the full state, and recovery (snapshot + WAL-tail replay) rebuilds
//      a service bitwise-equal to the uninterrupted one — even when the
//      crash tears the final record in half.
//   6. Telemetry is observation-only: the metrics registry counts every
//      request into exactly one per-kind outcome counter and exports a
//      Prometheus/JSON surface, without ever touching response bytes
//      (docs/OBSERVABILITY.md) — so only deterministic counts appear on
//      this stdout.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target fm_service
//   ./build/fm_service
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "baselines/fm_algorithm.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "core/objective_accumulator.h"
#include "data/census_generator.h"
#include "data/normalizer.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace {

using namespace fm;

uint64_t MaxUlpDistance(const opt::QuadraticModel& a,
                        const opt::QuadraticModel& b) {
  uint64_t worst = UlpDistance(a.beta, b.beta);
  for (size_t i = 0; i < a.dim(); ++i) {
    worst = std::max(worst, UlpDistance(a.alpha[i], b.alpha[i]));
    for (size_t j = 0; j < a.dim(); ++j) {
      worst = std::max(worst, UlpDistance(a.m(i, j), b.m(i, j)));
    }
  }
  return worst;
}

bool Check(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what);
  return condition;
}

}  // namespace

int main() {
  // 1. Microdata → §3-normalized dataset, exactly as in examples/quickstart.
  auto table = data::CensusGenerator::Generate(data::CensusGenerator::US(),
                                               /*rows=*/20000, /*seed=*/1)
                   .ValueOrDie();
  data::Normalizer::Options norm_options;
  norm_options.task = data::TaskKind::kLinear;
  auto normalizer =
      data::Normalizer::Fit(table, {"Age", "Education", "WorkHoursPerWeek"},
                            "AnnualIncome", norm_options)
          .ValueOrDie();
  const data::RegressionDataset dataset = normalizer.Apply(table).ValueOrDie();

  // Hold the last 400 tuples back as the live ingest stream.
  const size_t stream_size = 400;
  const size_t base_size = dataset.size() - stream_size;
  std::vector<size_t> base_rows(base_size);
  std::vector<size_t> stream_rows(stream_size);
  for (size_t i = 0; i < base_size; ++i) base_rows[i] = i;
  for (size_t i = 0; i < stream_size; ++i) stream_rows[i] = base_size + i;
  const data::RegressionDataset base = dataset.Select(base_rows);
  const data::RegressionDataset stream = dataset.Select(stream_rows);

  // 2. Stand the service up and bulk-load the offline snapshot.
  serve::ServiceOptions options;
  options.dim = dataset.dim();
  options.task = data::TaskKind::kLinear;
  options.total_epsilon = 4.0;
  options.seed = 20120827;
  auto service = serve::Service::Create(options).ValueOrDie();
  if (!service->Bootstrap(base).ok()) return 1;
  std::printf("bootstrapped %zu tuples (d = %zu), budget ε = %.2f\n",
              service->objective().live_size(), dataset.dim(),
              options.total_epsilon);

  // 3. A mixed request log: N inserts, a private train, a predict fan-out,
  //    one delete, a second private train, one online evaluation.
  std::vector<serve::Request> log;
  for (size_t i = 0; i < stream.size(); ++i) {
    log.push_back(serve::Request::Insert(stream.x.RowVector(i), stream.y[i]));
  }
  log.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.8));
  for (size_t i = 0; i < 100; ++i) {
    log.push_back(serve::Request::Predict(stream.x.RowVector(i)));
  }
  const uint64_t doomed_id = 123;  // one of the bootstrapped tuples
  log.push_back(serve::Request::Delete(doomed_id));
  const uint64_t retrain_position = service->log_position() + log.size();
  log.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.8));
  log.push_back(serve::Request::Evaluate());

  const std::vector<serve::Response> responses = service->ExecuteLog(log);
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].status.ok()) {
      std::printf("request %zu failed: %s\n", i,
                  responses[i].status.ToString().c_str());
      return 1;
    }
  }
  const serve::Response& train1 = responses[stream.size()];
  const serve::Response& retrain = responses[log.size() - 2];
  const serve::Response& evaluation = responses.back();
  std::printf(
      "served %zu requests: %zu inserts, 1 delete, 2 private trains "
      "(versions %llu, %llu), 100 predicts, 1 evaluate\n",
      log.size(), stream.size(),
      static_cast<unsigned long long>(train1.model_version),
      static_cast<unsigned long long>(retrain.model_version));
  std::printf("online evaluation: MSE %.6f over %zu live tuples (model v%llu)\n",
              evaluation.value, service->objective().live_size(),
              static_cast<unsigned long long>(evaluation.model_version));

  bool ok = true;

  // 4. Incremental vs from-scratch. The scratch side recomputes every
  //    coefficient from the raw tuples and reruns the mechanism on the same
  //    log-position noise substream the service used.
  std::printf("\nincremental maintenance vs full recompute:\n");
  serve::IncrementalObjective scratch =
      service->objective().RebuildFromScratch();
  const opt::QuadraticModel maintained =
      serve::IncrementalObjective(service->objective()).Objective();
  const uint64_t objective_ulp =
      MaxUlpDistance(maintained, scratch.Objective());
  std::printf("    objective vs scratch rebuild  : %llu ulp\n",
              static_cast<unsigned long long>(objective_ulp));
  ok &= Check(objective_ulp == 0,
              "maintained objective == from-scratch recompute (bitwise)");

  const auto dense = core::ObjectiveAccumulator::Build(
      service->objective().Materialize(),
      core::ObjectiveKindForTask(options.task));
  const uint64_t dense_ulp = MaxUlpDistance(maintained, dense.Global());
  std::printf("    objective vs dense offline acc: %llu ulp\n",
              static_cast<unsigned long long>(dense_ulp));
  ok &= Check(dense_ulp <= 1,
              "maintained objective within 1 ulp of the dense offline build");

  core::FmOptions fm_options;
  fm_options.epsilon = 0.8;
  fm_options.post_processing = options.post_processing;
  Rng scratch_rng(Rng::Fork(options.seed, retrain_position));
  const auto scratch_model =
      baselines::FmAlgorithm(fm_options)
          .TrainFromObjective(scratch.Objective(), options.task, scratch_rng)
          .ValueOrDie();
  const auto served_model = service->registry().Latest();
  uint64_t model_ulp = 0;
  for (size_t j = 0; j < served_model->omega.size(); ++j) {
    model_ulp = std::max(
        model_ulp, UlpDistance(served_model->omega[j], scratch_model.omega[j]));
  }
  std::printf("    served model vs scratch model : %llu ulp\n",
              static_cast<unsigned long long>(model_ulp));
  ok &= Check(model_ulp <= 1,
              "served model within 1 ulp of scratch-trained model");

  // 5. The ledger balances exactly.
  std::printf("\nprivacy ledger:\n");
  const serve::BudgetAccountant& accountant = service->accountant();
  double charged = 0.0;
  for (const auto& charge : accountant.charges()) {
    std::printf("    %-10s ε = %.3f\n", charge.label.c_str(), charge.epsilon);
    charged += charge.epsilon;
  }
  std::printf("    spent %.3f + remaining %.3f = total %.3f\n",
              accountant.spent_epsilon(), accountant.remaining_epsilon(),
              accountant.total_epsilon());
  ok &= Check(accountant.spent_epsilon() == charged,
              "spent equals the sum of committed charges");
  ok &= Check(accountant.spent_epsilon() ==
                  train1.epsilon_spent + retrain.epsilon_spent,
              "every committed charge came from a successful train");
  ok &= Check(accountant.spent_epsilon() + accountant.remaining_epsilon() ==
                  accountant.total_epsilon(),
              "spent + remaining == total (nothing leaked)");
  ok &= Check(accountant.pending_reservations() == 0,
              "no reservation left pending");

  // 6. Slot-space compaction. A burst of deletes punches holes; one
  //    explicit Compact request collapses the slot space back to the live
  //    count. Placed after the final train so the released coefficients
  //    above are untouched — though by the determinism contract the
  //    compaction itself is bit-stable at any log position.
  std::printf("\nslot-space compaction:\n");
  const size_t live_before = service->objective().live_size();
  std::vector<serve::Request> churn;
  const uint64_t first_stream_id = base_size;  // ids are insert-ordered
  for (uint64_t i = 0; i < 150; ++i) {
    churn.push_back(serve::Request::Delete(first_stream_id + i));
  }
  churn.push_back(serve::Request::Compact());
  const auto churn_responses = service->ExecuteLog(churn);
  for (size_t i = 0; i < churn_responses.size(); ++i) {
    if (!churn_responses[i].status.ok()) {
      std::printf("churn request %zu failed: %s\n", i,
                  churn_responses[i].status.ToString().c_str());
      return 1;
    }
  }
  const size_t reclaimed =
      static_cast<size_t>(churn_responses.back().value);
  std::printf("    deleted 150 tuples, compaction reclaimed %zu slots "
              "(%zu live, %zu resident)\n",
              reclaimed, service->objective().live_size(),
              service->objective().slot_count());
  // 150 fresh holes plus the one the earlier delete left behind.
  ok &= Check(reclaimed == 151, "compaction reclaimed every dead slot");
  ok &= Check(service->objective().slot_count() ==
                  service->objective().live_size(),
              "resident slot space equals the live count (O(live) memory)");
  ok &= Check(service->objective().live_size() == live_before - 150,
              "compaction dropped no live tuple");

  serve::IncrementalObjective fresh_store(
      dataset.dim(), core::ObjectiveKindForTask(options.task));
  if (!fresh_store.InsertBatch(service->objective().Materialize()).ok()) {
    return 1;
  }
  ok &= Check(service->objective().StoreStateBitwiseEquals(fresh_store),
              "compacted store bitwise == fresh store fed the live tuples");
  ok &= Check(MaxUlpDistance(
                  serve::IncrementalObjective(service->objective()).Objective(),
                  fresh_store.Objective()) == 0,
              "compacted objective bitwise == fresh store's objective");

  // Ids issued before the compaction still resolve (the store remapped
  // their slots underneath): scrub one more stream-era tuple.
  const auto late_delete =
      service->ExecuteLog({serve::Request::Delete(first_stream_id + 399)});
  ok &= Check(late_delete[0].status.ok(),
              "tuple ids issued before compaction remain valid");
  ok &= Check(accountant.pending_reservations() == 0 &&
                  accountant.spent_epsilon() == charged,
              "compaction charged no privacy budget");

  // 7. Crash-safe serving. A durable twin of the service runs a small mixed
  //    log with the write-ahead log attached, checkpoints mid-stream, and
  //    then "crashes" — simulated, as in tests/wal_test.cc, by destroying
  //    the process state and tearing the final WAL record (a crash can only
  //    lose a suffix, and truncation is exactly what one leaves behind).
  //    Recovery loads the snapshot, replays the WAL tail through the
  //    ordinary execution path, and must come back bitwise-equal to an
  //    uninterrupted reference service — the determinism contract is what
  //    makes "recovery = replay" provable rather than approximate.
  //    Output stays deterministic: counts and ulp distances only.
  std::printf("\ndurability and crash recovery:\n");
  namespace fs = std::filesystem;
  std::error_code scratch_ec;
  const fs::path scratch_dir = fs::temp_directory_path() / "fm_service_demo_wal";
  fs::remove_all(scratch_dir, scratch_ec);

  serve::DurabilityOptions durability;
  durability.wal.path = (scratch_dir / "requests.fmwal").string();
  // fsync-free mode: write(2) still lands every commit in the OS, so a
  // process crash loses nothing and the demo stays fast; recovery must
  // handle an arbitrary lost suffix under every mode anyway.
  durability.wal.sync = serve::WalSyncMode::kNone;
  durability.snapshot_dir = (scratch_dir / "snapshots").string();

  std::vector<serve::Request> demo_log;
  for (size_t i = 0; i < 120; ++i) {
    demo_log.push_back(
        serve::Request::Insert(stream.x.RowVector(i), stream.y[i]));
  }
  demo_log.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.8));
  for (size_t i = 0; i < 10; ++i) {
    demo_log.push_back(serve::Request::Predict(stream.x.RowVector(i)));
  }
  demo_log.push_back(serve::Request::Delete(7));
  demo_log.push_back(serve::Request::Evaluate());

  // The uninterrupted reference: same options, same log, no durability.
  auto reference = serve::Service::Create(options).ValueOrDie();
  const auto reference_responses = reference->ExecuteLog(demo_log);
  for (const auto& response : reference_responses) {
    if (!response.status.ok()) return 1;
  }

  auto durable = serve::Service::Create(options).ValueOrDie();
  if (!durable->EnableDurability(durability).ok()) return 1;
  const std::vector<serve::Request> first_half(demo_log.begin(),
                                               demo_log.begin() + 80);
  const std::vector<serve::Request> second_half(demo_log.begin() + 80,
                                                demo_log.end());
  for (const auto& response : durable->ExecuteLog(first_half)) {
    if (!response.status.ok()) return 1;
  }
  if (!durable->Checkpoint().ok()) return 1;
  for (const auto& response : durable->ExecuteLog(second_half)) {
    if (!response.status.ok()) return 1;
  }
  std::printf(
      "    wal: %llu records in %llu commit batches, checkpoint at "
      "position 80\n",
      static_cast<unsigned long long>(durable->wal()->appended_records()),
      static_cast<unsigned long long>(durable->wal()->commit_batches()));

  // Crash: drop the in-memory service, tear the final WAL record.
  durable.reset();
  const uint64_t wal_bytes =
      io::FileSize(durability.wal.path).ValueOrDie();
  if (!io::TruncateFile(durability.wal.path, wal_bytes - 3).ok()) return 1;

  auto recovered =
      serve::Service::Recover(options, durability).ValueOrDie();
  std::printf("    crash tore the final record; recovered to position %llu "
              "of %zu (snapshot + WAL tail replay)\n",
              static_cast<unsigned long long>(recovered->log_position()),
              demo_log.size());
  ok &= Check(recovered->log_position() == demo_log.size() - 1,
              "recovery replayed everything but the torn final record");

  // The client re-submits the lost request; its response must be
  // byte-identical to the uninterrupted run's.
  const auto resumed = recovered->ExecuteLog({demo_log.back()});
  ok &= Check(resumed[0].status.ok() &&
                  UlpDistance(resumed[0].value,
                              reference_responses.back().value) == 0 &&
                  resumed[0].model_version ==
                      reference_responses.back().model_version,
              "re-submitted final request answers byte-identically");

  uint64_t recovered_model_ulp = 0;
  const auto recovered_model = recovered->registry().Latest();
  const auto reference_model = reference->registry().Latest();
  for (size_t j = 0; j < recovered_model->omega.size(); ++j) {
    recovered_model_ulp =
        std::max(recovered_model_ulp, UlpDistance(recovered_model->omega[j],
                                                  reference_model->omega[j]));
  }
  std::printf("    recovered model vs reference  : %llu ulp\n",
              static_cast<unsigned long long>(recovered_model_ulp));
  ok &= Check(recovered->objective().StoreStateBitwiseEquals(
                  reference->objective()),
              "recovered store bitwise == uninterrupted reference");
  ok &= Check(recovered_model_ulp == 0 &&
                  recovered->accountant().spent_epsilon() ==
                      reference->accountant().spent_epsilon(),
              "recovered model and ledger bitwise == reference");

  recovered.reset();
  fs::remove_all(scratch_dir, scratch_ec);

  // 8. Telemetry. The main service counted every request above into
  //    exactly one per-kind outcome counter; the counters are deterministic
  //    (they mirror the log, not the clock) so they can be printed here —
  //    this stdout is byte-diffed across FM_THREADS in CI. Latency
  //    histograms exist too, but wall-clock numbers stay off this stdout;
  //    the exporters are checked for shape only.
  std::printf("\ntelemetry (deterministic counters only):\n");
  obs::MetricsRegistry* metrics = service->metrics();
  static const char* const kOutcomes[] = {
      "ok",           "invalid_argument",   "not_found",
      "failed_precondition", "resource_exhausted", "degraded_read_only",
      "io_error",     "other"};
  uint64_t outcome_total = 0;
  for (size_t k = 0; k < serve::kNumRequestKinds; ++k) {
    const std::string kind =
        serve::RequestKindToString(static_cast<serve::RequestKind>(k));
    uint64_t kind_total = 0;
    for (const char* outcome : kOutcomes) {
      kind_total += metrics
                        ->GetCounter("fm_serve_requests_total{kind=\"" + kind +
                                     "\",outcome=\"" + outcome + "\"}")
                        ->Value();
    }
    outcome_total += kind_total;
    const uint64_t ok_count =
        metrics
            ->GetCounter("fm_serve_requests_total{kind=\"" + kind +
                         "\",outcome=\"ok\"}")
            ->Value();
    if (kind_total != 0) {
      std::printf("    %-8s : %llu requests, %llu ok\n", kind.c_str(),
                  static_cast<unsigned long long>(kind_total),
                  static_cast<unsigned long long>(ok_count));
    }
  }
  std::printf("    total    : %llu outcomes recorded at log position %llu\n",
              static_cast<unsigned long long>(outcome_total),
              static_cast<unsigned long long>(service->log_position()));
  ok &= Check(outcome_total == service->log_position(),
              "every request recorded exactly one outcome counter");
  const std::string prometheus = service->DumpMetrics();
  ok &= Check(prometheus.find("# TYPE fm_serve_requests_total counter") !=
                      std::string::npos &&
                  prometheus.find("fm_serve_request_nanos") !=
                      std::string::npos,
              "Prometheus export carries the serve counters and histograms");
  const std::string snapshot = service->MetricsSnapshot();
  ok &= Check(snapshot.find("\"fm_store_live_tuples\"") != std::string::npos &&
                  snapshot.find("\"fm_budget_epsilon_spent\"") !=
                      std::string::npos,
              "JSON snapshot carries the store and budget gauges");

  std::printf("\n%s\n", ok ? "all serving-layer checks passed"
                           : "SERVING-LAYER CHECK FAILED");
  return ok ? 0 : 1;
}
