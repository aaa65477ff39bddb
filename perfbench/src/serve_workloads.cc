// The serve workloads: one seeded, single-process, closed-loop client that
// drives serve::Service through ExecuteLog calls and checks every output.
// A traced run also replays each call through a Shadow (shadow.h) and runs
// the layer probes.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "log_gen.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "shadow.h"

namespace perfbench {

using fm::serve::Request;
using fm::serve::Response;
using fm::serve::Service;

namespace {

void WipeDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

fm::serve::DurabilityOptions Durability(const ServeSpec& spec,
                                        const std::string& dir) {
  fm::serve::DurabilityOptions durability;
  durability.wal.path = dir + "/requests.fmwal";
  durability.wal.sync = spec.sync;
  durability.snapshot_dir = dir + "/snapshots";
  durability.snapshot_every = spec.snapshot_every;
  return durability;
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool VectorsEqual(const fm::linalg::Vector& a, const fm::linalg::Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) == 0;
}

uint64_t Digest1(const Response& response) {
  Digest d;
  d.Add(response);
  return d.value();
}

// Create + Bootstrap (+ EnableDurability): what setup_s times. The scratch
// directory is wiped first, outside the timed region.
std::unique_ptr<Service> SetUpService(const ServeSpec& spec,
                                      const fm::serve::ServiceOptions& options,
                                      const fm::data::RegressionDataset& data,
                                      const std::string& service_dir,
                                      double* seconds, std::string* error) {
  if (spec.durable) WipeDir(service_dir);
  const int64_t start = NowNs();
  auto created = Service::Create(options);
  if (!created.ok()) {
    *error = created.status().ToString();
    return nullptr;
  }
  std::unique_ptr<Service> service = std::move(created).ValueOrDie();
  fm::Status status = service->Bootstrap(data);
  if (status.ok() && spec.durable) {
    status = service->EnableDurability(Durability(spec, service_dir));
  }
  if (seconds != nullptr) {
    *seconds = static_cast<double>(NowNs() - start) / 1e9;
  }
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  return service;
}

double PolledGauge(Service& service, const char* name) {
  (void)service.MetricsSnapshot();  // polls the gauges
  const fm::obs::Gauge* gauge = service.metrics()->FindGauge(name);
  return gauge != nullptr ? gauge->Value() : 0.0;
}

// Client-side requests executed on one service; ops/s over call time.
double ClientOpsPerSecond(const ServeSpec& spec,
                          const fm::serve::ServiceOptions& options,
                          const fm::data::RegressionDataset& data,
                          const std::string& service_dir, uint64_t seed,
                          size_t requests, std::string* error) {
  auto service = SetUpService(spec, options, data, service_dir, nullptr, error);
  if (service == nullptr) return 0.0;
  LogGenerator gen(spec, seed, 0);
  size_t done = 0;
  int64_t busy = 0;
  while (done < requests) {
    const std::vector<Request> call = gen.NextCall();
    const int64_t start = NowNs();
    const std::vector<Response> responses = service->ExecuteLog(call);
    busy += NowNs() - start;
    done += responses.size();
  }
  return static_cast<double>(done) / (static_cast<double>(busy) / 1e9);
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return FindServeSpec(name) != nullptr;
}

int RunServeWorkload(const Options& opt, RunResult* result) {
  const ServeSpec& spec = *FindServeSpec(opt.workload);
  const bool traced = opt.trace;
  const std::string dir = opt.scratch + "/" + spec.name;
  const std::string service_dir = dir + "/service";
  const std::string shadow_dir = dir + "/shadow";
  WipeDir(dir);
  std::filesystem::create_directories(dir);

  const fm::serve::ServiceOptions options =
      BenchServiceOptions(spec.dim, fm::data::TaskKind::kLinear);
  const fm::data::RegressionDataset data = RandomDataset(
      spec.bootstrap_rows, spec.dim, fm::DeriveSeed(opt.seed, 1));
  fm::exec::ThreadPool& global = fm::exec::ThreadPool::Global();
  // The replay runs on its own pool of the same size, so the service's
  // pool counters see only the service's tasks.
  std::unique_ptr<fm::exec::ThreadPool> shadow_pool;
  if (traced) {
    shadow_pool = std::make_unique<fm::exec::ThreadPool>(global.num_threads());
  }

  // Set-up is timed twice here and once more per segment.
  std::string error;
  std::vector<double> setup_s;
  for (int warm = 0; warm < 2; ++warm) {
    double seconds = 0.0;
    if (SetUpService(spec, options, data, service_dir, &seconds, &error) ==
        nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds);
  }

  std::vector<double> call_us;
  std::vector<double> train_us;
  uint64_t ok_requests = 0;
  int64_t call_ns = 0;
  Digest prefix_digest;
  uint64_t prefix_count = 0;
  uint64_t compactions = 0;
  uint64_t segments = 0;
  uint64_t disk_bytes = 0;
  uint64_t disk_requests = 0;
  uint64_t planted = 0;  // client-side planted delete delays (self-test)
  // Throughput of each segment: a host stall lands in few segments, so the
  // median over segments repeats run to run where the run's mean does not.
  std::vector<double> segment_ops;
  std::string first_error;
  // Traced-run state.
  uint64_t replay_mismatches = 0;
  uint64_t train_mismatches = 0;
  double tasks_submitted = 0.0;
  uint64_t trimmed = 0, fits = 0;
  uint64_t predict_runs = 0, predict_requests = 0;
  uint64_t insert_runs = 0, insert_requests = 0;
  double bootstrap_ns = 0.0;
  uint64_t bootstrap_rows = 0;
  uint64_t wal_records = 0, wal_commits = 0, wal_bytes = 0;
  uint64_t snapshot_writes = 0, snapshot_bytes = 0;

  std::unique_ptr<Service> service;
  std::unique_ptr<Shadow> shadow;
  std::unique_ptr<LogGenerator> gen;
  const auto close_shadow_segment = [&]() {
    if (shadow == nullptr) return;
    predict_runs += shadow->predict_runs;
    predict_requests += shadow->predict_requests;
    insert_runs += shadow->insert_runs;
    insert_requests += shadow->insert_requests;
    if (shadow->wal() != nullptr) {
      wal_records += shadow->wal()->appended_records();
      wal_commits += shadow->wal()->commit_batches();
      wal_bytes += shadow->wal()->file_bytes() - 24;  // minus the header
    }
    snapshot_writes += shadow->snapshots();
    snapshot_bytes += shadow->snapshot_bytes();
  };

  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  for (uint64_t segment = 0;; ++segment) {
    close_shadow_segment();
    service.reset();
    shadow.reset();
    double seconds = 0.0;
    service = SetUpService(spec, options, data, service_dir, &seconds, &error);
    if (service == nullptr) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(seconds);
    gen = std::make_unique<LogGenerator>(spec, opt.seed, segment);
    ++segments;
    if (traced) {
      shadow = std::make_unique<Shadow>(options, shadow_pool.get(),
                                        opt.plant_delete_delay_us);
      const int64_t boot = NowNs();
      if (!shadow->Bootstrap(data).ok()) {
        std::fprintf(stderr, "replay bootstrap failed\n");
        return 1;
      }
      bootstrap_ns += static_cast<double>(NowNs() - boot);
      bootstrap_rows += data.size();
      if (spec.durable) {
        WipeDir(shadow_dir);
        if (!shadow->EnableDurability(Durability(spec, shadow_dir)).ok()) {
          std::fprintf(stderr, "replay durability failed\n");
          return 1;
        }
      }
      tasks_submitted -= PolledGauge(*service, "fm_pool_tasks_submitted");
    }
    const fm::obs::Counter* snapshot_counter =
        service->metrics()->FindCounter("fm_snapshot_writes_total");
    uint64_t snapshots_seen =
        snapshot_counter != nullptr ? snapshot_counter->Value() : 0;
    uint64_t segment_requests = 0;
    double epsilon_sum = 0.0;
    const uint64_t ok_before = ok_requests;
    const int64_t call_ns_before = call_ns;

    while (segment_requests < spec.segment_requests) {
      const std::vector<Request> call = gen->NextCall();
      size_t deletes = 0;
      if (opt.plant_delete_delay_us > 0.0) {
        for (const Request& r : call) {
          deletes += r.kind == fm::serve::RequestKind::kDelete;
        }
        planted += deletes;
      }
      const int64_t t0 = NowNs();
      // The planted delay sits in the client's own wrapper around the
      // call's deletes, inside the timed region.
      SpinMicros(opt.plant_delete_delay_us * static_cast<double>(deletes));
      const std::vector<Response> responses = service->ExecuteLog(call);
      const int64_t elapsed = NowNs() - t0;
      call_ns += elapsed;
      call_us.push_back(static_cast<double>(elapsed) / 1e3);
      const bool train_call =
          call.size() == 1 && call[0].kind == fm::serve::RequestKind::kTrain;
      if (train_call) train_us.push_back(static_cast<double>(elapsed) / 1e3);
      for (size_t i = 0; i < responses.size(); ++i) {
        ++result->attempted;
        const Response& r = responses[i];
        if (r.status.ok()) {
          ++ok_requests;
        } else {
          ++result->failed;
          if (first_error.empty()) first_error = r.status.ToString();
        }
        epsilon_sum += r.epsilon_spent;
        if (segment == 0 && prefix_count < spec.digest_prefix) {
          prefix_digest.Add(r);
          ++prefix_count;
        }
      }
      segment_requests += call.size();
      if (spec.durable && snapshot_counter != nullptr &&
          snapshot_counter->Value() != snapshots_seen) {
        snapshots_seen = snapshot_counter->Value();
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(
            std::filesystem::path(service_dir) / "snapshots" /
                fm::serve::SnapshotFileName(service->log_position()),
            ec);
        if (!ec) disk_bytes += bytes;
      }
      if (traced) {
        const std::vector<Response> replayed = shadow->Execute(call);
        for (size_t i = 0; i < responses.size(); ++i) {
          if (Digest1(responses[i]) != Digest1(replayed[i])) {
            ++replay_mismatches;
          }
        }
        train_mismatches += ProbeTrainPath(shadow->TakeTrains(), options,
                                           &trimmed, &fits);
      }
    }

    segment_ops.push_back(static_cast<double>(ok_requests - ok_before) /
                          (static_cast<double>(call_ns - call_ns_before) /
                           1e9));

    // Per-segment checks.
    compactions += service->compaction_count();
    if (!BitsEqual(service->accountant().spent_epsilon(), epsilon_sum)) {
      result->Fail("ledger spent != sum of train epsilon_spent (segment " +
                   std::to_string(segment) + ")");
    }
    if (spec.durable) {
      const fm::serve::Wal& wal = *service->wal();
      disk_bytes += wal.file_bytes() - 24;  // WAL records, minus the header
      disk_requests += segment_requests;
      const uint64_t retries = wal.retry_stats().transient_retries +
                               wal.retry_stats().short_writes;
      result->failed += retries + service->degraded_rejections() +
                        (wal.poisoned() ? 1 : 0);
      if (retries + service->degraded_rejections() > 0 || wal.poisoned()) {
        result->check_failures.push_back(
            "WAL retry/degraded/poisoned counter nonzero on a healthy volume");
      }
    }
    if (traced) {
      tasks_submitted += PolledGauge(*service, "fm_pool_tasks_submitted");
    }
    if (NowNs() >= deadline) break;
  }
  const double peak_rss_mb = PeakRssMb();
  const double measured_s = static_cast<double>(call_ns) / 1e9;
  const double ops_per_s = Median(segment_ops);
  close_shadow_segment();

  // Final store equals a from-scratch rebuild.
  if (!service->objective().StoreStateBitwiseEquals(
          service->objective().RebuildFromScratch())) {
    result->Fail("store != RebuildFromScratch()");
  }
  if (!first_error.empty()) {
    result->check_failures.push_back("a response had an unexpected status: " +
                                     first_error);
  }

  LayerInputs layers;
  if (traced) {
    if (replay_mismatches > 0) {
      result->Fail("traced replay diverged from the service in " +
                   std::to_string(replay_mismatches) + " responses");
    }
    if (train_mismatches > 0) {
      result->Fail("FitQuadratic did not reproduce " +
                   std::to_string(train_mismatches) + " released models");
    }
    if (!shadow->store().StoreStateBitwiseEquals(service->objective())) {
      result->Fail("traced replay store != service store");
    }
    ProbeInput probe;
    probe.shadow = shadow.get();
    probe.next_call = [&gen]() { return gen->NextCall(); };
    probe.durable = spec.durable;
    probe.durability = Durability(spec, shadow_dir);
    probe.probe_dir = dir + "/probe";
    probe.max_probe_records = std::max<size_t>(
        spec.call_size, static_cast<size_t>(ops_per_s * 0.25));
    layers.probe = RunLayerProbes(probe);
    if (!layers.probe.recovered_equal) {
      result->Fail("probe recovery of the replay's WAL + snapshot diverged");
    }
    if (!spec.durable) {
      wal_records = layers.probe.wal_records;
      wal_commits = layers.probe.wal_commits;
      wal_bytes = layers.probe.wal_bytes;
      snapshot_writes = layers.probe.snapshot_writes;
      snapshot_bytes = layers.probe.snapshot_bytes;
    }
  }

  // serve_churn recovers a compacted store, so the state recovered does not
  // grow with the number of deletes a run manages.
  if (spec.mix == Mix::kChurn) {
    const auto compacted = service->ExecuteLog({Request::Compact()});
    if (!compacted[0].status.ok()) result->Fail("final compaction failed");
  }

  // Recovery: the durable workload recovers its WAL + snapshots; the others
  // checkpoint their end state first (a restart with durability on).
  const fm::serve::DurabilityOptions durability =
      Durability(spec, service_dir);
  if (!spec.durable) {
    WipeDir(service_dir);
    if (!service->EnableDurability(durability).ok()) {
      result->Fail("EnableDurability on the end state failed");
    }
  }
  const fm::serve::IncrementalObjective reference_store = service->objective();
  const uint64_t reference_position = service->log_position();
  const double reference_spent = service->accountant().spent_epsilon();
  const uint64_t reference_version = service->registry().latest_version();
  const auto reference_model = service->registry().Latest();
  service.reset();
  std::vector<double> recovery_s;
  for (int r = 0; r < 25; ++r) {
    const int64_t t0 = NowNs();
    auto recovered = Service::Recover(options, durability);
    recovery_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!recovered.ok()) {
      result->Fail("Service::Recover failed: " +
                   recovered.status().ToString());
      break;
    }
    const Service& svc = *recovered.ValueOrDie();
    const auto model = svc.registry().Latest();
    if (svc.log_position() != reference_position ||
        !svc.objective().StoreStateBitwiseEquals(reference_store) ||
        !BitsEqual(svc.accountant().spent_epsilon(), reference_spent) ||
        svc.registry().latest_version() != reference_version ||
        model == nullptr || reference_model == nullptr ||
        !VectorsEqual(model->omega, reference_model->omega)) {
      result->Fail("recovered service != live service at log position " +
                   std::to_string(reference_position));
      break;
    }
  }

  // Determinism: the first segment's prefix again at FM_THREADS=1.
  {
    fm::exec::ThreadPool one(1);
    fm::serve::ServiceOptions single = options;
    single.pool = &one;
    auto svc = SetUpService(spec, single, data, service_dir, nullptr, &error);
    if (svc == nullptr) {
      result->Fail("FM_THREADS=1 setup failed: " + error);
    } else {
      LogGenerator replay(spec, opt.seed, 0);
      Digest digest;
      uint64_t count = 0;
      while (count < prefix_count) {
        for (const Response& r : svc->ExecuteLog(replay.NextCall())) {
          if (count < prefix_count) digest.Add(r);
          ++count;
        }
      }
      if (digest.value() != prefix_digest.value()) {
        result->Fail("response digest differs between FM_THREADS=1 and " +
                     std::to_string(global.num_threads()));
      }
    }
  }

  if (traced) {
    // Telemetry cost: the same log prefix with metrics off, then on.
    const size_t requests = std::min<size_t>(
        spec.segment_requests,
        std::max<size_t>(spec.call_size,
                         static_cast<size_t>(ops_per_s * 0.3)));
    fm::serve::ServiceOptions off = options;
    off.enable_metrics = false;
    const double ops_off = ClientOpsPerSecond(spec, off, data, service_dir,
                                              opt.seed, requests, &error);
    const double ops_on = ClientOpsPerSecond(spec, options, data, service_dir,
                                             opt.seed, requests, &error);
    layers.metrics_off_on_ratio = ops_on > 0.0 ? ops_off / ops_on : 0.0;

    layers.root = kCall;
    layers.untraced_call_ns = static_cast<double>(call_ns);
    const double requests_done = static_cast<double>(result->attempted);
    layers.tasks_per_op = tasks_submitted / requests_done;
    layers.predict_run_len =
        predict_runs > 0 ? static_cast<double>(predict_requests) /
                               static_cast<double>(predict_runs)
                         : 0.0;
    layers.insert_run_len =
        insert_runs > 0 ? static_cast<double>(insert_requests) /
                              static_cast<double>(insert_runs)
                        : 0.0;
    layers.compactions = compactions;
    const LayerStats inserts = TraceStats(kStoreInsert, kReplay);
    layers.insert_ns_per_row =
        (inserts.total_ns + bootstrap_ns) /
        static_cast<double>(inserts.units + bootstrap_rows);
    layers.trimmed = trimmed;
    layers.fits = fits;
    layers.wal_records = wal_records;
    layers.wal_commits = wal_commits;
    layers.wal_bytes = wal_bytes;
    layers.snapshot_writes = snapshot_writes;
    layers.snapshot_bytes = snapshot_bytes;
    EmitLayerMetrics(layers, result);
  } else {
    const TailPick tail = PickTail(call_us);
    if (!tail.valid) result->Fail("fewer than 11 calls: no tail percentile");
    result->Add("ops_per_s", ops_per_s, "1/s");
    result->Add("call_p50_us", Median(call_us), "us");
    result->AddReportOnly("call_tail_us", tail.value, "us");
    result->AddReportOnly("train_p50_us", Median(train_us), "us");
    result->Add("setup_s", Median(setup_s), "s");
    result->Add("recovery_s", Median(recovery_s), "s");
    result->Add("peak_rss_mb", peak_rss_mb, "MB");
    char line[256];
    std::snprintf(line, sizeof line,
                  "call_tail_us is p%g of %zu calls (%zu beyond)",
                  tail.percentile, tail.samples, tail.beyond);
    result->Note(line);
    std::snprintf(line, sizeof line, "train_p50_us over %zu train calls",
                  train_us.size());
    result->Note(line);
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "requests %llu in %zu calls over %llu segment(s), "
                "%.3f s in calls; compactions %llu",
                static_cast<unsigned long long>(result->attempted),
                call_us.size(), static_cast<unsigned long long>(segments),
                measured_s, static_cast<unsigned long long>(compactions));
  result->Note(line);
  if (opt.plant_delete_delay_us > 0.0) {
    std::snprintf(line, sizeof line, "planted delete delays: %llu",
                  static_cast<unsigned long long>(planted));
    result->Note(line);
  }
  if (spec.durable) {
    std::snprintf(line, sizeof line,
                  "disk_bytes_per_op %.4f bytes (WAL + snapshot bytes "
                  "written / requests; sync=%s, %zu-request commits, "
                  "snapshot_every=%llu)",
                  static_cast<double>(disk_bytes) /
                      static_cast<double>(disk_requests),
                  fm::serve::WalSyncModeToString(spec.sync), spec.call_size,
                  static_cast<unsigned long long>(spec.snapshot_every));
    result->Note(line);
  }
  std::snprintf(line, sizeof line,
                "digest of the first %llu responses %016llx (equal at "
                "FM_THREADS=1)",
                static_cast<unsigned long long>(prefix_count),
                static_cast<unsigned long long>(prefix_digest.value()));
  result->Note(line);
  WipeDir(dir);
  return 0;
}

}  // namespace perfbench
