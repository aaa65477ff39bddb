// The traced replay of the serving engine. A Shadow holds the same
// components a serve::Service holds — the store, the ledger, the registry,
// and optionally a WAL and a snapshot directory — and executes a request
// log by calling their public functions in the order
// Service::ExecuteLog does, with a span around each call. Its responses and
// state must equal the service's; the traced run checks that call by call.
#ifndef PERFBENCH_SHADOW_H_
#define PERFBENCH_SHADOW_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/thread_pool.h"
#include "opt/quadratic_model.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace perfbench {

/// Service options every benchmark service uses for a given shape. The
/// budget is large enough that no run exhausts it.
fm::serve::ServiceOptions BenchServiceOptions(size_t dim,
                                              fm::data::TaskKind task);

/// One train the replay executed, kept for the sub-layer probes.
struct TrainRecord {
  fm::opt::QuadraticModel objective;
  uint64_t rng_seed = 0;  // the seed of the Rng the fit drew its noise from
  double epsilon = 0.0;
  fm::linalg::Vector omega;
};

class Shadow {
 public:
  Shadow(const fm::serve::ServiceOptions& options, fm::exec::ThreadPool* pool,
         double plant_delete_delay_us);

  fm::Status Bootstrap(const fm::data::RegressionDataset& data);
  /// Opens a WAL at `durability.wal.path` and writes the base checkpoint,
  /// like Service::EnableDurability. The WAL is opened without its own
  /// sync policy; Execute applies the kBatch/kAlways policy with explicit
  /// Sync calls so the fsync shows as its own span.
  fm::Status EnableDurability(const fm::serve::DurabilityOptions& durability);

  std::vector<fm::serve::Response> Execute(
      const std::vector<fm::serve::Request>& log);

  fm::serve::IncrementalObjective& store() { return store_; }
  fm::serve::BudgetAccountant& ledger() { return *ledger_; }
  fm::serve::ModelRegistry& registry() { return registry_; }
  const fm::serve::ServiceOptions& options() const { return options_; }
  fm::exec::ThreadPool& pool() { return *pool_; }
  uint64_t position() const { return position_; }
  uint64_t compactions() const { return compactions_; }
  fm::serve::Wal* wal() { return wal_.get(); }
  uint64_t snapshot_bytes() const { return snapshot_bytes_; }
  uint64_t snapshots() const { return snapshots_; }

  /// Sets the log position after snapshot components were decoded into
  /// store(), ledger() and registry() (recovery probe).
  void SetPosition(uint64_t position);
  double plant_delete_delay_us() const { return plant_delete_delay_us_; }

  /// Trains since the last call, for the sub-layer probes.
  std::vector<TrainRecord> TakeTrains();

  // Same-kind run statistics of the replayed log.
  uint64_t predict_runs = 0, predict_requests = 0;
  uint64_t insert_runs = 0, insert_requests = 0;

 private:
  fm::serve::Response Predict(
      const fm::serve::Request& request,
      const std::shared_ptr<const fm::serve::ModelSnapshot>& snapshot) const;
  fm::serve::Response Train(const fm::serve::Request& request,
                            uint64_t position);
  void RunInserts(const std::vector<fm::serve::Request>& log, size_t begin,
                  size_t end, std::vector<fm::serve::Response>& out);
  void CommitWal();
  void Checkpoint();

  fm::serve::ServiceOptions options_;
  fm::exec::ThreadPool* pool_;
  double plant_delete_delay_us_;
  fm::serve::IncrementalObjective store_;
  std::unique_ptr<fm::serve::BudgetAccountant> ledger_;
  fm::serve::ModelRegistry registry_;
  uint64_t position_ = 0;
  uint64_t compactions_ = 0;
  std::vector<TrainRecord> trains_;

  std::unique_ptr<fm::serve::Wal> wal_;
  fm::serve::DurabilityOptions durability_;
  uint64_t fingerprint_ = 0;
  uint64_t last_checkpoint_ = 0;
  size_t records_since_sync_ = 0;
  int64_t last_sync_ns_ = 0;
  uint64_t snapshot_bytes_ = 0;
  uint64_t snapshots_ = 0;
};

/// Runs the core sub-layer probes (perturb, fit, spectral trim, Cholesky)
/// on each train's objective and checks that FitQuadratic reproduces the
/// released coefficients. Returns the number of mismatches; `trimmed` and
/// `fits` accumulate the trim share.
size_t ProbeTrainPath(const std::vector<TrainRecord>& trains,
                      const fm::serve::ServiceOptions& options,
                      uint64_t* trimmed, uint64_t* fits);

/// Inputs of the end-of-run probe suite.
struct ProbeInput {
  Shadow* shadow = nullptr;
  /// Next client call of the workload's stream (continues the log).
  std::function<std::vector<fm::serve::Request>()> next_call;
  /// Durable workloads recover from the replay's own WAL and snapshots;
  /// the others write a probe snapshot and WAL under `probe_dir` first.
  bool durable = false;
  fm::serve::DurabilityOptions durability;  // durable: the shadow's files
  std::string probe_dir;
  /// Upper bound on the probe WAL's records (its replay costs as much as
  /// executing them).
  size_t max_probe_records = 0;
  fm::data::TaskKind task = fm::data::TaskKind::kLinear;
};

/// Per-layer numbers the probe suite adds beyond the tracer's spans.
struct ProbeOutput {
  uint64_t wal_records = 0, wal_commits = 0, wal_bytes = 0;
  uint64_t snapshot_writes = 0, snapshot_bytes = 0;
  double accumulator_build_ms = 0.0;
  double fold_objective_us = 0.0;
  double task_error_ms = 0.0;
  double parallel_map_7_us = 0.0, inline_7_us = 0.0;
  double parallel_map_4096_us = 0.0, inline_4096_us = 0.0;
  double predict_ns = 0.0;
  bool recovered_equal = true;  // durable: probe recovery == shadow state
};

/// Runs every probe. Leaves the shadow's own state untouched; the probe WAL
/// continues the workload's stream without executing it.
ProbeOutput RunLayerProbes(const ProbeInput& input);

/// The numbers behind the per-layer metrics that do not come from spans.
struct LayerInputs {
  Layer root = kCall;  // the replay's root span kind
  double untraced_call_ns = 0.0;  // client-call time of the replayed log
  double tasks_per_op = 0.0;
  double predict_run_len = 0.0, insert_run_len = 0.0;
  uint64_t compactions = 0;
  double insert_ns_per_row = 0.0;
  uint64_t trimmed = 0, fits = 0;
  uint64_t wal_records = 0, wal_commits = 0, wal_bytes = 0;
  uint64_t snapshot_writes = 0, snapshot_bytes = 0;
  double metrics_off_on_ratio = 1.0;
  ProbeOutput probe;
};

/// Adds every per-layer metric to `result`, in the BENCHMARK.json order.
void EmitLayerMetrics(const LayerInputs& in, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SHADOW_H_
