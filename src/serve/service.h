#ifndef FM_SERVE_SERVICE_H_
#define FM_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/functional_mechanism.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "linalg/vector.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::serve {

class Wal;                 // serve/wal.h
struct DurabilityOptions;  // serve/wal.h

/// Which trainer a kTrain request runs. All three consume the live tuples
/// only through the maintained quadratic objective (the
/// RegressionAlgorithm::TrainFromObjective hook), which is what makes
/// on-demand retraining O(d³ + shards·d²) instead of O(n·d²).
enum class TrainerKind {
  /// The paper's ε-DP Functional Mechanism; charges the budget ledger.
  kFunctionalMechanism,
  /// Non-private minimizer of the (truncated) objective; free.
  kTruncated,
  /// Non-private exact optimum (linear task only); free.
  kNoPrivacy,
};

const char* TrainerKindToString(TrainerKind kind);

/// What a request does. The engine batches maximal runs of same-kind
/// read-only/ingest requests (see Service::ExecuteLog).
enum class RequestKind {
  kInsert,
  kDelete,
  kUpdate,
  kTrain,
  kPredict,
  kEvaluate,
  kCompact,
};

/// Number of RequestKind values (metric tables index by kind).
inline constexpr size_t kNumRequestKinds = 7;

/// Lower-case label for metrics/traces: "insert", "predict", …
const char* RequestKindToString(RequestKind kind);

/// One request in the service's log. Use the factory helpers; unused fields
/// are ignored by the engine.
struct Request {
  RequestKind kind = RequestKind::kPredict;
  linalg::Vector x;   ///< kInsert / kUpdate / kPredict features.
  double y = 0.0;     ///< kInsert / kUpdate label.
  TupleId id = 0;     ///< kDelete / kUpdate target.
  TrainerKind trainer = TrainerKind::kFunctionalMechanism;  ///< kTrain.
  double epsilon = 0.8;  ///< kTrain budget (kFunctionalMechanism only).

  static Request Insert(linalg::Vector features, double label);
  static Request Delete(TupleId id);
  static Request Update(TupleId id, linalg::Vector features, double label);
  static Request Train(TrainerKind trainer, double epsilon);
  static Request Predict(linalg::Vector features);
  static Request Evaluate();
  static Request Compact();
};

/// Degradation state of a durable service (docs/FAULTS.md). A non-durable
/// service is always kNormal — with no WAL there is nothing to fail.
enum class ServingMode {
  kNormal = 0,
  /// A resumable storage fault (ENOSPC on a WAL commit with a clean
  /// rollback): mutating requests are rejected with kDegradedReadOnly,
  /// predicts/evaluates keep serving the last durable state, and
  /// TryResume() re-probes the volume to exit degradation.
  kDegradedReadOnly = 1,
  /// A failed fsync (or unrecoverable write/rollback failure) poisoned the
  /// WAL: same read-only behavior, but only a restart + Service::Recover —
  /// which re-reads what is actually durable — exits this state.
  kPoisoned = 2,
};

const char* ServingModeToString(ServingMode mode);

/// Outcome of one request. `status` is per-request — a failed request never
/// fails the log; it reports here and leaves all state (tuples, budget,
/// models) untouched.
struct Response {
  Status status;
  TupleId id = 0;              ///< kInsert: assigned id; kDelete/kUpdate: target.
  double value = 0.0;  ///< kPredict: ŷ; kEvaluate: §7 error; kCompact: slots reclaimed.
  uint64_t model_version = 0;  ///< kTrain: published; kPredict/kEvaluate: used.
  double epsilon_spent = 0.0;  ///< kTrain: ε committed to the ledger.
};

struct ServiceOptions {
  /// Feature dimensionality of the served dataset (fixed at creation).
  size_t dim = 0;
  data::TaskKind task = data::TaskKind::kLinear;
  /// §6 remedy used by kFunctionalMechanism trains. kResample reserves 2ε
  /// (its Lemma-5 worst case) and commits what the fit actually spent.
  core::PostProcessing post_processing = core::PostProcessing::kAdaptive;
  /// Total ε the dataset may ever disclose (sequential composition).
  double total_epsilon = 4.0;
  /// Root seed; train request at log position p draws from
  /// Rng(Rng::Fork(seed, p)).
  uint64_t seed = 0x5e12e5eed;
  /// Pool for batched predicts/ingest; nullptr → the global FM_THREADS pool.
  exec::ThreadPool* pool = nullptr;
  /// Model versions retained by the registry.
  size_t max_model_history = 64;
  /// Auto-compaction: after every successful delete the engine compacts the
  /// store when dead_count ≥ compaction_min_dead AND
  /// dead_count ≥ compaction_dead_ratio · live_size — so resident slot
  /// space stays O(live) under insert+delete churn without clients ever
  /// issuing Request::Compact. The trigger is a pure function of the store
  /// state (itself a pure function of the log prefix), so it fires at the
  /// same log positions for every FM_THREADS and the determinism contract
  /// is unaffected. The min-dead floor keeps small stores — where holes are
  /// cheap — from churning through O(live·d²) rebuilds.
  bool auto_compact = true;
  double compaction_dead_ratio = 1.0;
  size_t compaction_min_dead = core::kObjectiveShardRows;
  /// Telemetry master switch. Telemetry is observation-only by contract:
  /// responses, WAL bytes, snapshots, and recovery are byte-identical with
  /// metrics on or off (the fuzz_determinism metrics axis proves it), so
  /// this flag — like `pool` — is excluded from OptionsFingerprint and the
  /// replay repro-artifact codec. See docs/OBSERVABILITY.md.
  bool enable_metrics = true;
  /// Per-request span tracing into Service::tracer(). Requires
  /// enable_metrics; off by default because spans allocate per record
  /// where metric updates are a single relaxed atomic add.
  bool trace_requests = false;
  /// Time seam for every telemetry timestamp (latency histograms, span
  /// start/end, WAL batch windows); nullptr →
  /// obs::MonotonicClock::Default(). Runtime wiring only — wall time never
  /// feeds request execution.
  const obs::Clock* clock = nullptr;
};

/// The online DP-regression service: a request engine over the incremental
/// objective, the budget ledger, and the model registry.
///
/// Semantics are strictly serializable in log order: the effect and response
/// of every request equal those of one-at-a-time execution in the order the
/// log presents them. Within that contract the engine extracts parallelism
/// from maximal same-kind runs — consecutive kPredict requests evaluate
/// concurrently against one registry snapshot (they are read-only and all
/// see the same version, exactly as serial execution would), and consecutive
/// kInsert requests bulk-accumulate their disjoint shards concurrently
/// (bit-identical to serial inserts by the IncrementalObjective invariant).
/// kTrain / kDelete / kUpdate / kEvaluate / kCompact execute serially at
/// their log position (compaction itself rebuilds shards in parallel, but
/// bit-identically for every pool size).
///
/// Clients address tuples by the stable TupleId a kInsert response carries;
/// ids survive compaction, so a client may hold one across any interleaving
/// of requests (see IncrementalObjective).
///
/// Determinism contract: for a fixed request log (and fixed ServiceOptions
/// seed), every response — including released model coefficients — is
/// bit-identical for every FM_THREADS value, with or without compactions
/// interleaved at fixed log positions.
/// Training randomness comes from Rng::Fork(seed, log_position), never from
/// execution order (tests/serve_test.cc asserts this end to end). See
/// docs/SERVING.md.
class Service {
 public:
  /// Validates the options (dim ≥ 1, total ε finite and positive, a finite
  /// positive compaction ratio when auto-compaction is on).
  static Result<std::unique_ptr<Service>> Create(const ServiceOptions& options);

  /// Rebuilds a service from its durable state: load the newest valid
  /// snapshot under `durability.snapshot_dir` (if any), replay the WAL tail
  /// — every record at a position the snapshot has not covered — through
  /// the ordinary execution path, then attach the WAL for appending
  /// (truncating any torn tail record a crash left). Because the serving
  /// state is a pure function of the request log, the recovered service is
  /// bitwise-equal to the uninterrupted one up to the last durable record:
  /// StoreStateBitwiseEquals holds and every subsequent response is
  /// byte-identical (tests/wal_test.cc proves this with crash injection).
  /// `options` must match the ones the durable state was written with (an
  /// options fingerprint in both file formats enforces it).
  static Result<std::unique_ptr<Service>> Recover(
      const ServiceOptions& options, const DurabilityOptions& durability);

  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Bulk-loads an initial dataset (e.g. an offline snapshot) before
  /// serving. Counts as ingest, not disclosure: no budget is charged until
  /// something trains on the data. Tuples are validated against the §3
  /// contract like any insert.
  Status Bootstrap(const data::RegressionDataset& initial);

  /// Makes this service durable from here on: every subsequent ExecuteLog
  /// batch is appended to the write-ahead log (and group-committed per the
  /// WalOptions sync mode) *before* it executes, and checkpoints serialize
  /// the full state to `durability.snapshot_dir`. Call on a freshly created
  /// (possibly Bootstrapped) service; fails with kAlreadyExists when the
  /// WAL file already exists — reattaching to durable state is Recover's
  /// job. Bootstrap data does not flow through the log, so a service with
  /// any pre-existing state requires a snapshot dir (a base checkpoint is
  /// written immediately to cover it).
  Status EnableDurability(const DurabilityOptions& durability);

  /// Writes a snapshot of the current state now (durability with a
  /// snapshot dir must be enabled). Also runs automatically every
  /// `DurabilityOptions::snapshot_every` log positions.
  Status Checkpoint();

  /// The attached WAL, or nullptr when durability is off (stats/tests).
  /// Analysis opt-out (documented benign): hands out an unsynchronized
  /// reference to an execute_mutex_-guarded pointer. Safe because wal_ only
  /// transitions nullptr→set once (EnableDurability/Recover), callers are
  /// tests/stats readers that sequence after that setup, and the Wal stats
  /// they read are plain counters.
  const Wal* wal() const FM_NO_THREAD_SAFETY_ANALYSIS { return wal_.get(); }

  /// Current degradation state (docs/FAULTS.md). Safe to read concurrently.
  ServingMode serving_mode() const {
    return static_cast<ServingMode>(
        serving_mode_.load(std::memory_order_acquire));
  }

  /// Attempts to exit read-only degradation: re-probes the WAL volume
  /// (write + truncate-back) and, when the probe succeeds, re-admits
  /// mutating requests. kFailedPrecondition when durability is off or the
  /// WAL is poisoned (a poisoned WAL needs a restart + Recover); otherwise
  /// the probe's typed error while the volume is still unwritable. The
  /// probe is deterministic — no waiting or wall-clock backoff — so a
  /// resume schedule driven by the request stream replays bit-identically.
  Status TryResume();

  /// Mutating requests rejected with kDegradedReadOnly so far.
  uint64_t degraded_rejections() const {
    return degraded_rejections_.load(std::memory_order_acquire);
  }

  /// Executes `log` in order with batched parallelism (see class comment)
  /// and returns one Response per request, in log order. Thread-safe:
  /// concurrent callers serialize on an internal execution mutex, so two
  /// racing ExecuteLog/Drain calls execute their batches back to back,
  /// never interleaved. When durability is enabled the batch is appended
  /// and committed to the WAL first; if that fails, nothing executes and
  /// every response carries the IO error.
  std::vector<Response> ExecuteLog(const std::vector<Request>& log);

  /// Thread-safe request submission for concurrent clients: appends to the
  /// internal queue and returns the request's ticket — its ordinal among
  /// all Enqueued requests. Tickets coincide with log positions only when
  /// every request flows through Enqueue/Drain; after direct ExecuteLog
  /// calls the two counters diverge, so correlate trains with their
  /// published models via Response::model_version (or
  /// ModelSnapshot::log_position), not via the ticket.
  uint64_t Enqueue(Request request);

  /// Drains the queue in ticket order through ExecuteLog and returns the
  /// drained requests' responses (ticket order). Thread-safe: racing Drain
  /// calls serialize on the execution mutex — the queue swap happens under
  /// it, so each drained batch executes atomically in ticket order. Enqueue
  /// may race with it (requests enqueued during a drain land in the next
  /// one).
  std::vector<Response> Drain();

  /// Log positions consumed so far. Safe to read concurrently with an
  /// in-flight Drain/ExecuteLog (atomic; updated once per executed batch).
  uint64_t log_position() const {
    return next_position_.load(std::memory_order_acquire);
  }
  /// Compactions performed so far (auto-triggered or explicit) that
  /// actually reclaimed slots. Safe to read concurrently, like
  /// log_position().
  uint64_t compaction_count() const {
    return compaction_count_.load(std::memory_order_acquire);
  }

  /// Analysis opt-out (documented benign): returns a reference to the
  /// execute_mutex_-guarded store without the lock. Kept for tests and
  /// stats displays that read it quiescently (no concurrent ExecuteLog);
  /// the store's own accessors are const and allocation-free.
  const IncrementalObjective& objective() const
      FM_NO_THREAD_SAFETY_ANALYSIS {
    return objective_;
  }
  const BudgetAccountant& accountant() const { return *accountant_; }
  const ModelRegistry& registry() const { return registry_; }
  const ServiceOptions& options() const { return options_; }

  /// Polls every gauge (budget ledger, store occupancy, WAL, pool, queue)
  /// and returns the full registry as one JSON object. "{}" when metrics
  /// are disabled. Thread-safe (serializes on the execution mutex).
  std::string MetricsSnapshot();
  /// Same poll, exported in Prometheus text format. "" when disabled.
  std::string DumpMetrics();
  /// The service's metric registry, or nullptr when metrics are disabled.
  /// Counters/histograms update live; gauges are only as fresh as the last
  /// MetricsSnapshot()/DumpMetrics() poll.
  obs::MetricsRegistry* metrics();
  /// The per-request tracer, or nullptr unless
  /// `enable_metrics && trace_requests`. Drain with Tracer::TakeRecords.
  obs::Tracer* tracer();

  /// Test-only: plants a deliberate determinism bug (the train RNG stream
  /// picks up the pool size, so responses depend on FM_THREADS). Exists so
  /// the differential fuzz harness (serve/replay.h, fuzz_determinism
  /// --self_check) can prove it detects and minimizes real divergence —
  /// never enable outside tests. Process-global; remember to restore.
  static void SetTestOnlyNondeterminism(bool enabled);
  static bool TestOnlyNondeterminism();

 private:
  explicit Service(const ServiceOptions& options,
                   std::unique_ptr<BudgetAccountant> accountant);

  exec::ThreadPool& pool() const;

  // The real engine; requires execute_mutex_. `append_to_wal` is false
  // only during Recover's replay — those records are already in the log.
  // Every execution path funnels through here, and the wrapper records
  // exactly one outcome metric per request — the WAL-commit-failure early
  // return, the degraded read-only path, and the normal path included.
  std::vector<Response> ExecuteLogLocked(const std::vector<Request>& log,
                                         bool append_to_wal)
      FM_REQUIRES(execute_mutex_);
  std::vector<Response> ExecuteLogImplLocked(const std::vector<Request>& log,
                                             bool append_to_wal)
      FM_REQUIRES(execute_mutex_);

  // Telemetry plumbing (all no-ops when telemetry_ is null). Definitions
  // live with struct Telemetry in service.cc.
  void RecordOutcomesLocked(const std::vector<Request>& log,
                            const std::vector<Response>& out)
      FM_REQUIRES(execute_mutex_);
  void RecordSegmentLatency(RequestKind kind, int64_t nanos, size_t count);
  void PollGaugesLocked() FM_REQUIRES(execute_mutex_);

  // Opens the WAL under options_fingerprint_ (clock defaulted to the
  // service's, telemetry wired) and records `durability` and the position
  // of the last checkpoint. Shared by EnableDurability and Recover.
  Status AttachWalLocked(const DurabilityOptions& durability,
                         uint64_t checkpoint_position)
      FM_REQUIRES(execute_mutex_);

  // Checkpoint machinery; requires execute_mutex_ and enabled durability.
  // CheckpointLocked wraps WriteSnapshotLocked (the encode + write + prune
  // body) with snapshot telemetry.
  Status CheckpointLocked() FM_REQUIRES(execute_mutex_);
  Status WriteSnapshotLocked() FM_REQUIRES(execute_mutex_);
  void MaybeAutoCheckpointLocked() FM_REQUIRES(execute_mutex_);

  // Degraded-mode machinery; all require execute_mutex_.
  void EnterFaultModeLocked(const Status& cause)
      FM_REQUIRES(execute_mutex_);
  // Read-only execution while degraded: predicts/evaluates serve the last
  // durable state WITHOUT consuming log positions or touching the WAL
  // (consumed-but-unlogged positions would desync the Rng::Fork(seed,
  // position) train streams between this service and a recovered replica);
  // every mutating request is rejected with kDegradedReadOnly.
  std::vector<Response> ExecuteReadOnlyLocked(const std::vector<Request>& log)
      FM_REQUIRES(execute_mutex_);
  Response DegradedRejectionLocked() FM_REQUIRES(execute_mutex_);

  // Handlers; `position` is the request's absolute log position. All of
  // them mutate (or read for mutation) the execute_mutex_-guarded store,
  // except DoPredict: it runs on pool worker threads inside
  // RunPredictBatch and touches only the immutable options and a registry
  // snapshot, so it carries no lock requirement by design.
  Response DoInsertLocked(const Request& request)
      FM_REQUIRES(execute_mutex_);
  Response DoDeleteLocked(const Request& request)
      FM_REQUIRES(execute_mutex_);
  Response DoUpdateLocked(const Request& request)
      FM_REQUIRES(execute_mutex_);
  Response DoTrainLocked(const Request& request, uint64_t position)
      FM_REQUIRES(execute_mutex_);
  Response DoPredict(const Request& request,
                     const std::shared_ptr<const ModelSnapshot>& snapshot)
      const;
  Response DoEvaluateLocked() FM_REQUIRES(execute_mutex_);
  Response DoCompactLocked() FM_REQUIRES(execute_mutex_);

  // Runs the ServiceOptions auto-compaction policy; called after every
  // successful delete (the only transition that grows dead_count).
  void MaybeAutoCompactLocked() FM_REQUIRES(execute_mutex_);

  // Batched handlers over log[begin, end). RunPredictBatch is read-only
  // (registry snapshot + worker-thread DoPredict) and needs no lock.
  void RunPredictBatch(const std::vector<Request>& log, size_t begin,
                       size_t end, std::vector<Response>& out) const;
  void RunInsertBatchLocked(const std::vector<Request>& log, size_t begin,
                            size_t end, std::vector<Response>& out)
      FM_REQUIRES(execute_mutex_);

  ServiceOptions options_;
  std::unique_ptr<BudgetAccountant> accountant_;
  ModelRegistry registry_;
  // Serializes all execution (ExecuteLog, Drain, Checkpoint,
  // EnableDurability) so racing callers cannot interleave batches; the
  // counters below stay atomic so the read-only accessors need not take it.
  // Lock order: execute_mutex_ is always taken before queue_mutex_ (Drain,
  // PollGaugesLocked); never the reverse.
  Mutex execute_mutex_ FM_ACQUIRED_BEFORE(queue_mutex_);
  IncrementalObjective objective_ FM_GUARDED_BY(execute_mutex_);
  std::atomic<uint64_t> next_position_{0};
  std::atomic<uint64_t> compaction_count_{0};

  // Durability (null until EnableDurability/Recover).
  std::unique_ptr<Wal> wal_ FM_GUARDED_BY(execute_mutex_);
  std::unique_ptr<DurabilityOptions> durability_
      FM_GUARDED_BY(execute_mutex_);
  const uint64_t options_fingerprint_;  // of options_; immutable, no guard
  uint64_t last_checkpoint_position_ FM_GUARDED_BY(execute_mutex_) = 0;

  // Degradation state (docs/FAULTS.md). The mode is atomic so
  // serving_mode() needs no lock; transitions happen under execute_mutex_.
  std::atomic<int> serving_mode_{0};
  std::atomic<uint64_t> degraded_rejections_{0};
  std::string degrade_reason_ FM_GUARDED_BY(execute_mutex_);

  // Telemetry (null when options_.enable_metrics is false). Immutable
  // pointer after construction, so hot paths test it without a lock.
  struct Telemetry;
  std::unique_ptr<Telemetry> telemetry_;

  Mutex queue_mutex_;
  std::vector<Request> queue_ FM_GUARDED_BY(queue_mutex_);
  // Parallel to queue_ when telemetry is on: Enqueue timestamps, so Drain
  // can observe per-request queue wait.
  std::vector<int64_t> queue_enqueue_nanos_ FM_GUARDED_BY(queue_mutex_);
  uint64_t queue_base_ FM_GUARDED_BY(queue_mutex_) = 0;
};

}  // namespace fm::serve

#endif  // FM_SERVE_SERVICE_H_
