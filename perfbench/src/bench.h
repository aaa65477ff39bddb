// Shared declarations of the repository benchmark: command-line options, the
// result record every workload fills, sample statistics, the response digest
// and the span tracer used by traced runs.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/service.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the durable workloads' WAL and snapshots; one fixed path
  /// per workload below it, wiped before and after the run.
  std::string scratch = ".bench_build/scratch";
  /// Self-test hook: busy-wait this long in the benchmark's own wrapper
  /// around every store delete (client side in untraced runs, around
  /// IncrementalObjective::Delete in the traced replay).
  double plant_delete_delay_us = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// False for metrics printed in the report but kept out of the result
  /// JSON, because their run-to-run spread on a shared host exceeds any
  /// regression bound the benchmark may set (see perfbench/README.md).
  bool in_json = true;
};

/// What one run reports. `failed` counts failed or refused operations plus
/// one per failed output check; `correct` is false when any check failed.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Fail(const std::string& what) {
    check_failures.push_back(what);
    ++failed;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  void AddReportOnly(const std::string& name, double value,
                     const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

int RunServeWorkload(const Options& options, RunResult* result);
int RunOfflineCv(const Options& options, RunResult* result);
bool IsServeWorkload(const std::string& name);

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> values);

/// The highest of p99, p98, p95 and p90 that leaves at least 10 samples
/// beyond its rank (nearest-rank definition), else the rank that leaves
/// exactly 10. `valid` is false when there are fewer than 11 samples.
struct TailPick {
  bool valid = false;
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
TailPick PickTail(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Busy-waits `micros` microseconds (the planted-delay self-test hook).
void SpinMicros(double micros);

// --- response digest --------------------------------------------------------

/// FNV-1a over every byte a client can observe in a response.
class Digest {
 public:
  void Add(const fm::serve::Response& response);
  void AddBytes(const void* data, size_t size);
  void AddDouble(double value) { AddBytes(&value, sizeof value); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// --- tracing ----------------------------------------------------------------

/// Layers the traced replay times. Roots (kCall, kCvCall, kFoldTask) frame
/// one client call or one worker task; every other span is a call into one
/// module's public function.
enum Layer : int {
  kCall,            // serve.engine.call — one replayed ExecuteLog
  kCvCall,          // eval.cv.call — one replayed CrossValidate
  kFoldTask,        // eval.fold_task — one (repeat, fold) task on a worker
  kParallelMap,     // exec.parallel_map
  kStoreInsert,     // serve.store.insert (Insert or InsertBatch)
  kStoreDelete,     // serve.store.delete
  kStoreUpdate,     // serve.store.update
  kStoreCompact,    // serve.store.compact
  kStoreObjective,  // serve.store.objective
  kLedgerReserve,   // serve.ledger.reserve
  kLedgerSettle,    // serve.ledger.settle
  kFitObjective,    // core.fit_objective (RegressionAlgorithm::TrainFromObjective)
  kRegistryPublish,  // serve.registry.publish
  kWalAppend,       // serve.wal.append (encodes the records)
  kWalCommit,       // serve.wal.commit (write, plus fsync when due)
  kWalFsync,        // serve.wal.fsync
  kSnapEncode,      // serve.snapshot.encode
  kSnapWrite,       // serve.snapshot.write
  kSnapPrune,       // serve.snapshot.prune
  kSnapLoad,        // serve.snapshot.load
  kSnapDecode,      // serve.snapshot.decode
  kWalReadAll,      // serve.wal.read_all
  kRecoveryReplay,  // serve.recovery.replay
  kAccumBuild,      // core.accumulator_build
  kKFoldSplit,      // data.kfold_split
  kFoldObjective,   // core.fold_objective
  kTaskError,       // eval.task_error
  kPerturb,         // core.perturb (sub-layer probe)
  kFitQuadratic,    // core.fit_quadratic (sub-layer probe)
  kSpectralTrim,    // core.spectral_trim (sub-layer probe)
  kCholesky,        // linalg.cholesky (sub-layer probe)
  kLayerCount,
};

const char* LayerName(Layer layer);
bool IsRootLayer(Layer layer);

/// Phase 0 is the replay of the measured log; phase 1 holds probes that run
/// a layer's public function on the workload's end state when the log never
/// called it, and the sub-layer probes of the train path.
enum Phase : int { kReplay = 0, kProbe = 1 };

void TraceEnable(bool enabled);
void TraceSetPhase(Phase phase);

/// RAII span. Spans nest per thread; a span's self time is its duration
/// minus its children's. Costs nothing when tracing is off.
class Span {
 public:
  explicit Span(Layer layer, uint64_t units = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Records a span measured elsewhere (used where nested spans must not
/// record, e.g. around a whole recovery replay).
void TraceRecord(Layer layer, int64_t nanos, uint64_t units = 0);

struct LayerStats {
  uint64_t count = 0;
  uint64_t units = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> samples_ns;  // per-span durations (bounded)
  double MedianNs() const;
  double P50Us() const { return MedianNs() / 1e3; }
};

/// Merged stats of `layer` in `phase` over every thread.
LayerStats TraceStats(Layer layer, Phase phase);
/// Stats from the replay when the replay called the layer, else from probes.
LayerStats TraceStatsPreferReplay(Layer layer);
/// Σ self time of non-root replay spans over Σ root replay span durations.
double TraceCoverage();
/// Writes the merged per-layer table as JSON to `path` (best effort).
void TraceWrite(const std::string& path, const std::string& header);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
