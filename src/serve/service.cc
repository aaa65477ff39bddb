#include "serve/service.h"

#include <cmath>
#include <string>
#include <utility>

#include "baselines/fm_algorithm.h"
#include "baselines/no_privacy.h"
#include "common/io_env.h"
#include "common/io_util.h"
#include "common/logging.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "dp/budget.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace fm::serve {

namespace {

// Outcome label classes for the per-kind request counters. Coarser than
// StatusCode so the catalog stays readable: codes that mean the same thing
// to an operator share a class.
constexpr size_t kNumOutcomeClasses = 8;

size_t OutcomeClassIndex(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 1;
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
      return 2;
    case StatusCode::kFailedPrecondition:
      return 3;
    case StatusCode::kResourceExhausted:
      return 4;
    case StatusCode::kDegradedReadOnly:
      return 5;
    case StatusCode::kIoError:
    case StatusCode::kUnavailable:
      return 6;
    default:
      return 7;  // kNumericalError, kUnimplemented, kInternal
  }
}

const char* OutcomeClassName(size_t index) {
  static const char* const kNames[kNumOutcomeClasses] = {
      "ok",           "invalid_argument",   "not_found",
      "failed_precondition", "resource_exhausted", "degraded_read_only",
      "io_error",     "other"};
  return kNames[index];
}

}  // namespace

// All metric objects a running service updates, precomputed at
// construction so the hot path never takes the registry lock: one
// enabled-branch plus array indexing by [kind][outcome class]. Gauges are
// resolved lazily in PollGaugesLocked — polling is cold.
struct Service::Telemetry {
  explicit Telemetry(const ServiceOptions& options)
      : clock(obs::ClockOrDefault(options.clock)) {
    for (size_t k = 0; k < kNumRequestKinds; ++k) {
      const std::string kind =
          RequestKindToString(static_cast<RequestKind>(k));
      for (size_t c = 0; c < kNumOutcomeClasses; ++c) {
        outcomes[k][c] = registry.GetCounter(
            "fm_serve_requests_total{kind=\"" + kind + "\",outcome=\"" +
            OutcomeClassName(c) + "\"}");
      }
      request_nanos[k] =
          registry.GetHistogram("fm_serve_request_nanos{kind=\"" + kind +
                                "\"}");
    }
    batch_requests = registry.GetHistogram("fm_serve_batch_requests");
    queue_nanos = registry.GetHistogram("fm_serve_queue_nanos");
    wal_commit_records = registry.GetHistogram("fm_wal_commit_records");
    wal_fsync_nanos = registry.GetHistogram("fm_wal_fsync_nanos");
    wal_syncs = registry.GetCounter("fm_wal_syncs_total");
    wal_commit_failures = registry.GetCounter("fm_wal_commit_failures_total");
    snapshot_write_nanos = registry.GetHistogram("fm_snapshot_write_nanos");
    snapshot_writes = registry.GetCounter("fm_snapshot_writes_total");
    snapshot_write_failures =
        registry.GetCounter("fm_snapshot_write_failures_total");
    pool_task_nanos = registry.GetHistogram("fm_pool_task_nanos");
    if (options.trace_requests) {
      tracer = std::make_unique<obs::Tracer>(clock);
    }
  }

  obs::MetricsRegistry registry;
  const obs::Clock* clock;
  std::unique_ptr<obs::Tracer> tracer;  // non-null iff trace_requests

  obs::Counter* outcomes[kNumRequestKinds][kNumOutcomeClasses];
  obs::Histogram* request_nanos[kNumRequestKinds];
  obs::Histogram* batch_requests;
  obs::Histogram* queue_nanos;
  obs::Histogram* wal_commit_records;
  obs::Histogram* wal_fsync_nanos;
  obs::Counter* wal_syncs;
  obs::Counter* wal_commit_failures;
  obs::Histogram* snapshot_write_nanos;
  obs::Counter* snapshot_writes;
  obs::Counter* snapshot_write_failures;
  obs::Histogram* pool_task_nanos;
};

const char* ServingModeToString(ServingMode mode) {
  switch (mode) {
    case ServingMode::kNormal:
      return "normal";
    case ServingMode::kDegradedReadOnly:
      return "degraded-read-only";
    case ServingMode::kPoisoned:
      return "poisoned";
  }
  return "?";
}

const char* RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kInsert:
      return "insert";
    case RequestKind::kDelete:
      return "delete";
    case RequestKind::kUpdate:
      return "update";
    case RequestKind::kTrain:
      return "train";
    case RequestKind::kPredict:
      return "predict";
    case RequestKind::kEvaluate:
      return "evaluate";
    case RequestKind::kCompact:
      return "compact";
  }
  return "?";
}

const char* TrainerKindToString(TrainerKind kind) {
  switch (kind) {
    case TrainerKind::kFunctionalMechanism:
      return "FM";
    case TrainerKind::kTruncated:
      return "Truncated";
    case TrainerKind::kNoPrivacy:
      return "NoPrivacy";
  }
  return "?";
}

Request Request::Insert(linalg::Vector features, double label) {
  Request r;
  r.kind = RequestKind::kInsert;
  r.x = std::move(features);
  r.y = label;
  return r;
}

Request Request::Delete(TupleId id) {
  Request r;
  r.kind = RequestKind::kDelete;
  r.id = id;
  return r;
}

Request Request::Update(TupleId id, linalg::Vector features, double label) {
  Request r;
  r.kind = RequestKind::kUpdate;
  r.id = id;
  r.x = std::move(features);
  r.y = label;
  return r;
}

Request Request::Train(TrainerKind trainer, double epsilon) {
  Request r;
  r.kind = RequestKind::kTrain;
  r.trainer = trainer;
  r.epsilon = epsilon;
  return r;
}

Request Request::Predict(linalg::Vector features) {
  Request r;
  r.kind = RequestKind::kPredict;
  r.x = std::move(features);
  return r;
}

Request Request::Evaluate() {
  Request r;
  r.kind = RequestKind::kEvaluate;
  return r;
}

Request Request::Compact() {
  Request r;
  r.kind = RequestKind::kCompact;
  return r;
}

Service::Service(const ServiceOptions& options,
                 std::unique_ptr<BudgetAccountant> accountant)
    : options_(options),
      accountant_(std::move(accountant)),
      registry_(options.max_model_history),
      objective_(options.dim, core::ObjectiveKindForTask(options.task)),
      options_fingerprint_(OptionsFingerprint(options)) {
  if (options_.enable_metrics) {
    telemetry_ = std::make_unique<Telemetry>(options_);
  }
}

// Out of line: Wal and DurabilityOptions are incomplete in the header.
Service::~Service() = default;

Result<std::unique_ptr<Service>> Service::Create(
    const ServiceOptions& options) {
  if (options.dim == 0) {
    return Status::InvalidArgument("service dimensionality must be >= 1");
  }
  if (options.auto_compact &&
      (!std::isfinite(options.compaction_dead_ratio) ||
       options.compaction_dead_ratio <= 0.0)) {
    return Status::InvalidArgument(
        "compaction_dead_ratio must be finite and positive when "
        "auto-compaction is enabled");
  }
  FM_ASSIGN_OR_RETURN(std::unique_ptr<BudgetAccountant> accountant,
                      BudgetAccountant::Create(options.total_epsilon));
  return std::unique_ptr<Service>(
      new Service(options, std::move(accountant)));
}

exec::ThreadPool& Service::pool() const {
  return options_.pool != nullptr ? *options_.pool
                                  : exec::ThreadPool::Global();
}

Status Service::Bootstrap(const data::RegressionDataset& initial) {
  MutexLock lock(execute_mutex_);
  if (initial.size() == 0) return Status::OK();
  return objective_.InsertBatch(initial, &pool()).status();
}

std::vector<Response> Service::ExecuteLog(const std::vector<Request>& log) {
  MutexLock lock(execute_mutex_);
  return ExecuteLogLocked(log, /*append_to_wal=*/true);
}

std::vector<Response> Service::ExecuteLogLocked(
    const std::vector<Request>& log, bool append_to_wal) {
  std::vector<Response> out = ExecuteLogImplLocked(log, append_to_wal);
  // The single outcome-recording point: every execution path — the
  // WAL-commit-failure early return, the degraded read-only path, and the
  // normal path — returns through here, so each request records exactly
  // one outcome metric per execution (a client retry is a new execution
  // and counts again, by design).
  RecordOutcomesLocked(log, out);
  return out;
}

std::vector<Response> Service::ExecuteLogImplLocked(
    const std::vector<Request>& log, bool append_to_wal) {
  std::vector<Response> out(log.size());
  const uint64_t base = next_position_.load(std::memory_order_relaxed);
  obs::Span batch_span;
  if (telemetry_ != nullptr && telemetry_->tracer != nullptr &&
      !log.empty()) {
    batch_span = telemetry_->tracer->StartSpan("execute_log");
  }
  if (append_to_wal && wal_ != nullptr && !log.empty()) {
    if (serving_mode_.load(std::memory_order_relaxed) !=
        static_cast<int>(ServingMode::kNormal)) {
      return ExecuteReadOnlyLocked(log);
    }
    // WAL-before-state: the whole batch becomes durable (one group commit)
    // before anything executes. If it cannot, nothing executes — no log
    // position is consumed and no state changes — and every request
    // reports the root-cause IO error. The service then degrades: later
    // batches get read-only service (docs/FAULTS.md) instead of hammering
    // a failing volume.
    for (size_t i = 0; i < log.size(); ++i) {
      wal_->Append(base + i, log[i]);
    }
    const Status committed = wal_->Commit();
    if (!committed.ok()) {
      EnterFaultModeLocked(committed);
      for (Response& r : out) r.status = committed;
      return out;
    }
  }
  // Per-segment wall timing: one clock read per maximal same-kind run (a
  // serial request is its own run), recorded as `len` per-request
  // observations at the run's mean cost — so histogram counts match
  // request counts while the hot path pays O(1) clock reads per run.
  const bool timing = telemetry_ != nullptr;
  int64_t segment_start = timing ? telemetry_->clock->NowNanos() : 0;
  size_t i = 0;
  while (i < log.size()) {
    const RequestKind kind = log[i].kind;
    size_t segment_end = i + 1;
    if (kind == RequestKind::kPredict || kind == RequestKind::kInsert) {
      // Maximal same-kind run, timed and traced as one segment. A predict
      // run evaluates concurrently, which is response-equivalent to serial
      // execution (see the class comment); an insert run executes request
      // by request.
      size_t j = i;
      while (j < log.size() && log[j].kind == kind) ++j;
      segment_end = j;
      obs::Span segment_span;
      if (batch_span.active()) {
        segment_span = telemetry_->tracer->StartChild(
            batch_span, RequestKindToString(kind));
      }
      if (kind == RequestKind::kPredict) {
        RunPredictBatch(log, i, j, out);
      } else {
        for (size_t k = i; k < j; ++k) out[k] = DoInsertLocked(log[k]);
      }
    } else {
      obs::Span request_span;
      if (batch_span.active()) {
        request_span = telemetry_->tracer->StartChild(
            batch_span, RequestKindToString(kind));
      }
      switch (kind) {
        case RequestKind::kDelete:
          out[i] = DoDeleteLocked(log[i]);
          break;
        case RequestKind::kUpdate:
          out[i] = DoUpdateLocked(log[i]);
          break;
        case RequestKind::kTrain:
          out[i] = DoTrainLocked(log[i], base + i);
          break;
        case RequestKind::kCompact:
          out[i] = DoCompactLocked();
          break;
        case RequestKind::kEvaluate:
        default:
          out[i] = DoEvaluateLocked();
          break;
      }
    }
    if (timing) {
      const int64_t now = telemetry_->clock->NowNanos();
      RecordSegmentLatency(kind, now - segment_start, segment_end - i);
      segment_start = now;
    }
    i = segment_end;
  }
  next_position_.store(base + log.size(), std::memory_order_release);
  MaybeAutoCheckpointLocked();
  return out;
}

void Service::RecordOutcomesLocked(const std::vector<Request>& log,
                                   const std::vector<Response>& out) {
  if (telemetry_ == nullptr || log.empty()) return;
  telemetry_->batch_requests->Observe(static_cast<int64_t>(log.size()));
  for (size_t i = 0; i < log.size(); ++i) {
    const size_t kind = static_cast<size_t>(log[i].kind);
    const size_t outcome = OutcomeClassIndex(out[i].status.code());
    telemetry_->outcomes[kind][outcome]->Increment();
  }
}

void Service::RecordSegmentLatency(RequestKind kind, int64_t nanos,
                                   size_t count) {
  if (telemetry_ == nullptr || count == 0) return;
  telemetry_->request_nanos[static_cast<size_t>(kind)]->ObserveN(
      nanos / static_cast<int64_t>(count), count);
}

uint64_t Service::Enqueue(Request request) {
  // telemetry_ is immutable after construction, so reading it without the
  // execution mutex is safe.
  const int64_t now =
      telemetry_ != nullptr ? telemetry_->clock->NowNanos() : 0;
  MutexLock lock(queue_mutex_);
  const uint64_t ticket = queue_base_ + queue_.size();
  queue_.push_back(std::move(request));
  if (telemetry_ != nullptr) queue_enqueue_nanos_.push_back(now);
  return ticket;
}

std::vector<Response> Service::Drain() {
  // Take the execution mutex before swapping the queue out: two racing
  // Drain calls then claim and execute their batches strictly one after
  // the other, in ticket order — with the swap outside the mutex a thread
  // could claim batch k+1 and execute it before (or interleaved with) the
  // thread holding batch k.
  MutexLock lock(execute_mutex_);
  std::vector<Request> batch;
  std::vector<int64_t> enqueued_nanos;
  {
    MutexLock queue_lock(queue_mutex_);
    batch.swap(queue_);
    enqueued_nanos.swap(queue_enqueue_nanos_);
    queue_base_ += batch.size();
  }
  if (telemetry_ != nullptr && !enqueued_nanos.empty()) {
    const int64_t now = telemetry_->clock->NowNanos();
    for (const int64_t enqueued : enqueued_nanos) {
      telemetry_->queue_nanos->Observe(now - enqueued);
    }
  }
  return ExecuteLogLocked(batch, /*append_to_wal=*/true);
}

void Service::EnterFaultModeLocked(const Status& cause) {
  degrade_reason_ = cause.ToString();
  const ServingMode mode = (wal_ != nullptr && wal_->poisoned())
                               ? ServingMode::kPoisoned
                               : ServingMode::kDegradedReadOnly;
  serving_mode_.store(static_cast<int>(mode), std::memory_order_release);
  FM_LOG(kError) << "service degrading to " << ServingModeToString(mode)
                 << ": " << degrade_reason_;
}

Response Service::DegradedRejectionLocked() {
  degraded_rejections_.fetch_add(1, std::memory_order_relaxed);
  // Rate-limited: a client hammering a degraded service floods this path.
  FM_LOG_EVERY_N(kWarning, 256)
      << "rejecting mutating request (service is "
      << ServingModeToString(serving_mode()) << "; " << degraded_rejections()
      << " rejections so far): " << degrade_reason_;
  const bool poisoned = serving_mode_.load(std::memory_order_relaxed) ==
                        static_cast<int>(ServingMode::kPoisoned);
  Response r;
  // The message is a pure function of the fault that caused degradation, so
  // degraded responses stay byte-identical across threads/kernels/replicas
  // (the fuzz --faults invariant).
  r.status = Status::DegradedReadOnly(
      std::string("service is read-only (") +
      (poisoned ? "poisoned WAL; restart and Recover to resume"
                : "degraded; retry after TryResume()") +
      "): " + degrade_reason_);
  return r;
}

std::vector<Response> Service::ExecuteReadOnlyLocked(
    const std::vector<Request>& log) {
  // Read-only service on the last durable state. Nothing here consumes a
  // log position or touches the WAL: positions must keep meaning "durably
  // logged request" or a recovered replica's Rng::Fork(seed, position)
  // train streams would diverge from this service's after a resume.
  std::vector<Response> out(log.size());
  size_t i = 0;
  while (i < log.size()) {
    if (log[i].kind == RequestKind::kPredict) {
      size_t j = i;
      while (j < log.size() && log[j].kind == RequestKind::kPredict) ++j;
      RunPredictBatch(log, i, j, out);
      i = j;
      continue;
    }
    if (log[i].kind == RequestKind::kEvaluate) {
      out[i] = DoEvaluateLocked();
    } else {
      out[i] = DegradedRejectionLocked();
    }
    ++i;
  }
  return out;
}

Status Service::TryResume() {
  MutexLock lock(execute_mutex_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "TryResume needs durability enabled — a non-durable service never "
        "degrades");
  }
  switch (serving_mode()) {
    case ServingMode::kNormal:
      return Status::OK();
    case ServingMode::kPoisoned:
      return Status::FailedPrecondition(
          "the WAL is poisoned (failed fsync/write); restart the service "
          "and use Service::Recover — it re-reads what is actually durable");
    case ServingMode::kDegradedReadOnly:
      break;
  }
  const Status probed = wal_->ProbeWritable();
  if (!probed.ok()) {
    if (wal_->poisoned()) {
      // The probe's rollback failed: the WAL can no longer vouch for its
      // append point. Escalate so callers stop retrying TryResume.
      serving_mode_.store(static_cast<int>(ServingMode::kPoisoned),
                          std::memory_order_release);
    }
    return probed;
  }
  serving_mode_.store(static_cast<int>(ServingMode::kNormal),
                      std::memory_order_release);
  degrade_reason_.clear();
  FM_LOG(kInfo) << "service resumed from read-only degradation (volume "
                   "accepts writes again)";
  return Status::OK();
}

Response Service::DoInsertLocked(const Request& request) {
  Response r;
  const Result<TupleId> id = objective_.Insert(request.x, request.y);
  if (!id.ok()) {
    r.status = id.status();
    return r;
  }
  r.id = id.ValueOrDie();
  return r;
}

Response Service::DoDeleteLocked(const Request& request) {
  Response r;
  r.status = objective_.Delete(request.id);
  r.id = request.id;
  if (r.status.ok()) MaybeAutoCompactLocked();
  return r;
}

Response Service::DoUpdateLocked(const Request& request) {
  Response r;
  r.status = objective_.Update(request.id, request.x.raw(), request.x.size(),
                               request.y);
  r.id = request.id;
  return r;
}

Response Service::DoCompactLocked() {
  Response r;
  const size_t reclaimed = objective_.Compact(&pool());
  if (reclaimed > 0) ++compaction_count_;
  r.value = static_cast<double>(reclaimed);
  return r;
}

void Service::MaybeAutoCompactLocked() {
  if (!options_.auto_compact) return;
  const size_t dead = objective_.dead_count();
  if (dead < options_.compaction_min_dead) return;
  if (static_cast<double>(dead) < options_.compaction_dead_ratio *
                                      static_cast<double>(
                                          objective_.live_size())) {
    return;
  }
  if (objective_.Compact(&pool()) > 0) ++compaction_count_;
}

namespace {

// Runs the requested trainer against the maintained objective. All trainers
// go through the RegressionAlgorithm::TrainFromObjective hook — the serving
// layer never materializes the tuples to train.
Result<baselines::TrainedModel> TrainWith(
    const Request& request, const ServiceOptions& options,
    const opt::QuadraticModel& objective, Rng& rng) {
  switch (request.trainer) {
    case TrainerKind::kFunctionalMechanism: {
      core::FmOptions fm_options;
      fm_options.epsilon = request.epsilon;
      fm_options.post_processing = options.post_processing;
      return baselines::FmAlgorithm(fm_options)
          .TrainFromObjective(objective, options.task, rng);
    }
    case TrainerKind::kTruncated:
      return baselines::Truncated().TrainFromObjective(objective,
                                                       options.task, rng);
    case TrainerKind::kNoPrivacy:
    default:
      return baselines::NoPrivacy().TrainFromObjective(objective,
                                                       options.task, rng);
  }
}

}  // namespace

Response Service::DoTrainLocked(const Request& request, uint64_t position) {
  Response r;
  if (objective_.live_size() == 0) {
    r.status = Status::FailedPrecondition("cannot train on an empty store");
    return r;
  }

  const bool is_private =
      request.trainer == TrainerKind::kFunctionalMechanism;
  uint64_t reservation = 0;
  if (is_private) {
    r.status = dp::ValidateEpsilon(request.epsilon);
    if (!r.status.ok()) return r;
    // Reserve the worst case up front: Lemma 5's resampling remedy spends
    // 2ε when it resamples, every other path spends ε. Settle spends the
    // actual ε and releases the rest; a failed train aborts and consumes
    // nothing.
    const double worst_case =
        options_.post_processing == core::PostProcessing::kResample
            ? 2.0 * request.epsilon
            : request.epsilon;
    const Result<uint64_t> reserved = accountant_->Reserve(
        worst_case, "train@" + std::to_string(position));
    if (!reserved.ok()) {
      r.status = reserved.status();
      return r;
    }
    reservation = reserved.ValueOrDie();
  }

  // All training randomness derives from the request's log position — never
  // from thread scheduling — so the released coefficients are bit-identical
  // for every FM_THREADS (the determinism contract, docs/SERVING.md).
  Rng rng(Rng::Fork(options_.seed, position));
  const Result<baselines::TrainedModel> trained =
      TrainWith(request, options_, objective_.Objective(&pool()), rng);
  if (!trained.ok()) {
    r.status = trained.status();
    if (is_private) {
      const Status aborted = accountant_->Abort(reservation);
      if (!aborted.ok()) {
        // A reservation this handler just made can only fail to abort if
        // the ledger is corrupted — surface both problems, never drop one.
        r.status = Status::Internal(
            "train failed (" + trained.status().ToString() +
            ") and releasing its reservation also failed (" +
            aborted.ToString() + ")");
      }
    }
    return r;
  }

  const baselines::TrainedModel& model = trained.ValueOrDie();
  if (is_private) {
    // Settle spends or releases in one step, so the reservation is settled
    // exactly once and a failed settle reports its root cause.
    r.status = accountant_->Settle(reservation, model.epsilon_spent);
    if (!r.status.ok()) return r;
  }

  ModelSnapshot snapshot;
  snapshot.algorithm = TrainerKindToString(request.trainer);
  snapshot.task = options_.task;
  snapshot.omega = model.omega;
  snapshot.epsilon_spent = is_private ? model.epsilon_spent : 0.0;
  snapshot.is_private = is_private;
  snapshot.log_position = position;
  snapshot.trained_on = objective_.live_size();
  r.model_version = registry_.Publish(std::move(snapshot));
  r.epsilon_spent = is_private ? model.epsilon_spent : 0.0;
  return r;
}

Response Service::DoPredict(
    const Request& request,
    const std::shared_ptr<const ModelSnapshot>& snapshot) const {
  Response r;
  if (snapshot == nullptr) {
    r.status = Status::FailedPrecondition(
        "no model published yet; submit a train request first");
    return r;
  }
  if (request.x.size() != options_.dim) {
    r.status = Status::InvalidArgument(
        "predict feature dimensionality " + std::to_string(request.x.size()) +
        " does not match the service's " + std::to_string(options_.dim));
    return r;
  }
  for (const double v : request.x) {
    if (!std::isfinite(v)) {
      r.status = Status::InvalidArgument("feature values must be finite");
      return r;
    }
  }
  r.model_version = snapshot->version;
  r.value = options_.task == data::TaskKind::kLinear
                ? core::FmLinearRegression::Predict(snapshot->omega, request.x)
                : core::FmLogisticRegression::PredictProbability(
                      snapshot->omega, request.x);
  return r;
}

void Service::RunPredictBatch(const std::vector<Request>& log, size_t begin,
                              size_t end, std::vector<Response>& out) const {
  // One snapshot for the whole run: every predict in the batch reads the
  // same model version (snapshot isolation), which is also what serial
  // execution would see — no write sits between them in the log.
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_.Latest();
  const auto responses = exec::ParallelMap(
      end - begin,
      [&](size_t i) { return DoPredict(log[begin + i], snapshot); }, pool());
  for (size_t i = 0; i < responses.size(); ++i) {
    out[begin + i] = responses[i];
  }
}

Response Service::DoEvaluateLocked() {
  Response r;
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_.Latest();
  if (snapshot == nullptr) {
    r.status = Status::FailedPrecondition("no model published yet");
    return r;
  }
  if (objective_.live_size() == 0) {
    r.status = Status::FailedPrecondition("no live tuples to evaluate on");
    return r;
  }
  // Online validation through the §7 metrics: the latest model scored over
  // the current live tuples (MSE or misclassification rate per the task),
  // streamed straight out of the store's slots. ForEachLive visits exactly
  // the sequence Materialize() would pack and the streaming metrics share
  // their per-row arithmetic with the dataset overloads, so the score is
  // bit-identical to materializing first — without the O(n · d) copy an
  // evaluate request used to allocate.
  r.model_version = snapshot->version;
  // Bound to a local reference: the lock analysis does not see through
  // lambda captures, and the callee invokes the visitor synchronously on
  // this thread, so the lock stays held for every ForEachLive access.
  const IncrementalObjective& objective = objective_;
  r.value = eval::TaskErrorStreaming(
      options_.task, snapshot->omega, objective.live_size(),
      [&objective](auto&& visit) { objective.ForEachLive(visit); });
  return r;
}

Status Service::EnableDurability(const DurabilityOptions& durability) {
  MutexLock lock(execute_mutex_);
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  if (durability.wal.path.empty()) {
    return Status::InvalidArgument("DurabilityOptions.wal.path is empty");
  }
  io::Env& env = durability.wal.env != nullptr ? *durability.wal.env
                                               : io::Env::Default();
  if (env.FileSize(durability.wal.path).ok()) {
    return Status::AlreadyExists(
        "WAL " + durability.wal.path +
        " already exists — use Service::Recover to reattach durable state");
  }
  const bool has_state = objective_.slot_count() > 0 ||
                         next_position_.load(std::memory_order_relaxed) > 0 ||
                         registry_.latest_version() > 0;
  if (has_state && durability.snapshot_dir.empty()) {
    return Status::InvalidArgument(
        "service already holds state (Bootstrap data never flows through "
        "the log) — durability needs a snapshot_dir for the base "
        "checkpoint");
  }
  FM_RETURN_NOT_OK(AttachWalLocked(
      durability, next_position_.load(std::memory_order_relaxed)));
  if (!durability_->snapshot_dir.empty()) {
    // Base checkpoint: captures whatever exists now (typically Bootstrap
    // data), so recovery never needs to re-run Bootstrap.
    const Status checkpointed = CheckpointLocked();
    if (!checkpointed.ok()) {
      wal_.reset();
      durability_.reset();
      return checkpointed;
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Service>> Service::Recover(
    const ServiceOptions& options, const DurabilityOptions& durability) {
  FM_ASSIGN_OR_RETURN(std::unique_ptr<Service> service, Create(options));
  // The service is private to this function until it returns, but restore
  // and replay write execute_mutex_-guarded state (the store, the WAL
  // attachment), so hold the lock for real — the annotations then prove
  // the same discipline here as on the serving path. Lock via a raw
  // pointer: the analysis matches capabilities by base expression, and
  // `svc->` keeps every access below on the same base.
  Service* svc = service.get();
  MutexLock lock(svc->execute_mutex_);
  const obs::Clock* recovery_clock = obs::ClockOrDefault(options.clock);
  const int64_t recovery_start = recovery_clock->NowNanos();
  uint64_t replayed_records = 0;

  // 1. Newest valid snapshot, if checkpoints were taken. Corrupt or torn
  //    snapshot files are skipped inside LoadLatestSnapshot.
  uint64_t snapshot_position = 0;
  if (!durability.snapshot_dir.empty()) {
    Result<SnapshotContents> snapshot = LoadLatestSnapshot(
        durability.snapshot_dir, svc->options_fingerprint_,
        durability.wal.env);
    if (snapshot.ok()) {
      const SnapshotContents& contents = snapshot.ValueOrDie();
      FM_RETURN_NOT_OK(DecodeSnapshotComponents(
          contents.components, &svc->objective_,
          svc->accountant_.get(), &svc->registry_));
      svc->next_position_.store(contents.next_position,
                                std::memory_order_relaxed);
      svc->compaction_count_.store(contents.compaction_count,
                                   std::memory_order_relaxed);
      snapshot_position = contents.next_position;
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      return snapshot.status();
    }
  }

  // 2. Replay the WAL tail — records the snapshot has not covered —
  //    through the ordinary execution path. Recovery = replay: state after
  //    this loop is a pure function of (snapshot, tail), bitwise.
  const Result<WalReplay> replay =
      Wal::ReadAll(durability.wal.path, svc->options_fingerprint_,
                   durability.wal.env);
  if (replay.ok()) {
    std::vector<Request> tail;
    for (const WalRecord& record : replay.ValueOrDie().records) {
      if (record.position < snapshot_position) continue;
      if (record.position != snapshot_position + tail.size()) {
        return Status::IoError(
            "WAL tail is not contiguous at position " +
            std::to_string(record.position) + " (expected " +
            std::to_string(snapshot_position + tail.size()) + ")");
      }
      tail.push_back(record.request);
    }
    if (!tail.empty()) {
      replayed_records = tail.size();
      svc->ExecuteLogLocked(tail, /*append_to_wal=*/false);
    }
  } else if (replay.status().code() != StatusCode::kNotFound) {
    // A missing WAL with a valid snapshot is fine (the log can be rotated
    // away after a checkpoint); anything else is a real failure.
    return replay.status();
  }

  // 3. Attach the WAL for appending; Open truncates any torn tail so new
  //    records land on a record boundary.
  FM_RETURN_NOT_OK(svc->AttachWalLocked(durability, snapshot_position));
  if (svc->telemetry_ != nullptr) {
    obs::MetricsRegistry& reg = svc->telemetry_->registry;
    reg.GetGauge("fm_recovery_nanos")
        ->Set(static_cast<double>(recovery_clock->NowNanos() -
                                  recovery_start));
    reg.GetGauge("fm_recovery_replayed_records")
        ->Set(static_cast<double>(replayed_records));
  }
  return service;
}

Status Service::AttachWalLocked(const DurabilityOptions& durability,
                                uint64_t checkpoint_position) {
  // Default the WAL's time seam to the service's clock so one injected
  // clock drives every timestamp. Runtime wiring only, like `env`.
  DurabilityOptions resolved = durability;
  if (resolved.wal.clock == nullptr) resolved.wal.clock = options_.clock;
  FM_ASSIGN_OR_RETURN(wal_, Wal::Open(resolved.wal, options_fingerprint_));
  if (telemetry_ != nullptr) {
    WalTelemetry sink;
    sink.commit_batch_records = telemetry_->wal_commit_records;
    sink.fsync_nanos = telemetry_->wal_fsync_nanos;
    sink.syncs = telemetry_->wal_syncs;
    sink.commit_failures = telemetry_->wal_commit_failures;
    wal_->set_telemetry(sink);
  }
  durability_ = std::make_unique<DurabilityOptions>(resolved);
  last_checkpoint_position_ = checkpoint_position;
  return Status::OK();
}

Status Service::Checkpoint() {
  MutexLock lock(execute_mutex_);
  return CheckpointLocked();
}

Status Service::CheckpointLocked() {
  if (durability_ == nullptr || durability_->snapshot_dir.empty()) {
    return Status::FailedPrecondition(
        "checkpoints need durability enabled with a snapshot_dir");
  }
  const int64_t start =
      telemetry_ != nullptr ? telemetry_->clock->NowNanos() : 0;
  // Out-of-line body (not a lambda): the thread-safety analysis does not
  // propagate held locks into lambda bodies, and every member below is
  // execute_mutex_-guarded.
  const Status written = WriteSnapshotLocked();
  if (telemetry_ != nullptr) {
    telemetry_->snapshot_write_nanos->Observe(telemetry_->clock->NowNanos() -
                                              start);
    (written.ok() ? telemetry_->snapshot_writes
                  : telemetry_->snapshot_write_failures)
        ->Increment();
  }
  return written;
}

Status Service::WriteSnapshotLocked() {
  const uint64_t position = next_position_.load(std::memory_order_relaxed);
  const std::string payload = EncodeSnapshot(
      objective_, *accountant_, registry_, position,
      compaction_count_.load(std::memory_order_relaxed));
  FM_RETURN_NOT_OK(WriteSnapshotFile(
      durability_->snapshot_dir, position, options_fingerprint_, payload,
      /*sync=*/durability_->wal.sync != WalSyncMode::kNone,
      durability_->wal.env));
  FM_RETURN_NOT_OK(PruneSnapshots(durability_->snapshot_dir,
                                  durability_->snapshot_keep,
                                  durability_->wal.env));
  last_checkpoint_position_ = position;
  return Status::OK();
}

void Service::MaybeAutoCheckpointLocked() {
  if (durability_ == nullptr || durability_->snapshot_dir.empty() ||
      durability_->snapshot_every == 0) {
    return;
  }
  const uint64_t position = next_position_.load(std::memory_order_relaxed);
  if (position - last_checkpoint_position_ >= durability_->snapshot_every) {
    // Best effort: a failed auto-checkpoint must not fail the batch that
    // triggered it — the WAL already holds every record, so recovery just
    // replays a longer tail. Previously swallowed silently; now it at
    // least leaves a (rate-limited) trace for operators.
    const Status checkpointed = CheckpointLocked();
    if (!checkpointed.ok()) {
      FM_LOG_EVERY_N(kWarning, 16)
          << "auto-checkpoint at log position " << position
          << " failed (recovery will replay a longer WAL tail): "
          << checkpointed.ToString();
    }
  }
}

void Service::PollGaugesLocked() {
  if (telemetry_ == nullptr) return;
  obs::MetricsRegistry& reg = telemetry_->registry;
  const auto set = [&reg](const char* name, double value) {
    reg.GetGauge(name)->Set(value);
  };
  set("fm_budget_epsilon_total", accountant_->total_epsilon());
  set("fm_budget_epsilon_spent", accountant_->spent_epsilon());
  set("fm_budget_epsilon_reserved", accountant_->reserved_epsilon());
  set("fm_budget_epsilon_remaining", accountant_->remaining_epsilon());
  set("fm_budget_pending_reservations",
      static_cast<double>(accountant_->pending_reservations()));
  set("fm_store_live_tuples", static_cast<double>(objective_.live_size()));
  set("fm_store_slot_count", static_cast<double>(objective_.slot_count()));
  set("fm_store_dead_slots", static_cast<double>(objective_.dead_count()));
  set("fm_store_pending_tuples",
      static_cast<double>(objective_.pending_tuples()));
  set("fm_store_materializations",
      static_cast<double>(objective_.materialize_count()));
  set("fm_serve_log_position", static_cast<double>(log_position()));
  set("fm_serve_compactions", static_cast<double>(compaction_count()));
  set("fm_serve_model_version",
      static_cast<double>(registry_.latest_version()));
  set("fm_serve_models_retained", static_cast<double>(registry_.size()));
  set("fm_serve_serving_mode",
      static_cast<double>(serving_mode_.load(std::memory_order_acquire)));
  set("fm_serve_degraded_rejections",
      static_cast<double>(degraded_rejections()));
  {
    MutexLock queue_lock(queue_mutex_);
    set("fm_serve_queue_depth", static_cast<double>(queue_.size()));
  }
  exec::ThreadPool& p = pool();
  set("fm_pool_threads", static_cast<double>(p.num_threads()));
  set("fm_pool_queue_depth", static_cast<double>(p.queue_depth()));
  set("fm_pool_tasks_submitted", static_cast<double>(p.tasks_submitted()));
  set("fm_pool_tasks_completed", static_cast<double>(p.tasks_completed()));
  telemetry_->pool_task_nanos->CopyFrom(p.task_nanos());
  // The fault-cleanliness keys exist with or without durability, so a
  // healthy-run check can always assert they are zero.
  if (wal_ != nullptr) {
    set("fm_wal_appended_records",
        static_cast<double>(wal_->appended_records()));
    set("fm_wal_commit_batches", static_cast<double>(wal_->commit_batches()));
    set("fm_wal_sync_count", static_cast<double>(wal_->sync_count()));
    set("fm_wal_file_bytes", static_cast<double>(wal_->file_bytes()));
    set("fm_wal_sync_mode",
        static_cast<double>(static_cast<int>(wal_->options().sync)));
    set("fm_wal_poisoned", wal_->poisoned() ? 1.0 : 0.0);
    set("fm_wal_transient_retries",
        static_cast<double>(wal_->retry_stats().transient_retries));
    set("fm_wal_short_writes",
        static_cast<double>(wal_->retry_stats().short_writes));
  } else {
    set("fm_wal_poisoned", 0.0);
    set("fm_wal_transient_retries", 0.0);
    set("fm_wal_short_writes", 0.0);
  }
}

std::string Service::MetricsSnapshot() {
  if (telemetry_ == nullptr) return "{}";
  MutexLock lock(execute_mutex_);
  PollGaugesLocked();
  return telemetry_->registry.ExportJson();
}

std::string Service::DumpMetrics() {
  if (telemetry_ == nullptr) return "";
  MutexLock lock(execute_mutex_);
  PollGaugesLocked();
  return telemetry_->registry.ExportPrometheus();
}

obs::MetricsRegistry* Service::metrics() {
  return telemetry_ != nullptr ? &telemetry_->registry : nullptr;
}

obs::Tracer* Service::tracer() {
  return telemetry_ != nullptr ? telemetry_->tracer.get() : nullptr;
}

}  // namespace fm::serve
