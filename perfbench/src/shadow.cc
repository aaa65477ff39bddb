#include "shadow.h"

#include <cmath>
#include <cstring>
#include <filesystem>

#include "baselines/fm_algorithm.h"
#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "dp/budget.h"
#include "eval/metrics.h"
#include "exec/parallel.h"
#include "linalg/cholesky.h"
#include "log_gen.h"
#include "serve/snapshot.h"

namespace perfbench {

using fm::serve::Request;
using fm::serve::RequestKind;
using fm::serve::Response;

fm::serve::ServiceOptions BenchServiceOptions(size_t dim,
                                              fm::data::TaskKind task) {
  fm::serve::ServiceOptions options;
  options.dim = dim;
  options.task = task;
  options.total_epsilon = 1e12;
  options.seed = 20120827;
  return options;
}

Shadow::Shadow(const fm::serve::ServiceOptions& options,
               fm::exec::ThreadPool* pool, double plant_delete_delay_us)
    : options_(options),
      pool_(pool),
      plant_delete_delay_us_(plant_delete_delay_us),
      store_(options.dim, fm::core::ObjectiveKindForTask(options.task)),
      ledger_(fm::serve::BudgetAccountant::Create(options.total_epsilon)
                  .ValueOrDie()),
      registry_(options.max_model_history) {}

fm::Status Shadow::Bootstrap(const fm::data::RegressionDataset& data) {
  if (data.size() == 0) return fm::Status::OK();
  return store_.InsertBatch(data, pool_).status();
}

fm::Status Shadow::EnableDurability(
    const fm::serve::DurabilityOptions& durability) {
  durability_ = durability;
  fingerprint_ = fm::serve::OptionsFingerprint(options_);
  fm::serve::WalOptions wal_options = durability.wal;
  wal_options.sync = fm::serve::WalSyncMode::kNone;
  FM_ASSIGN_OR_RETURN(wal_, fm::serve::Wal::Open(wal_options, fingerprint_));
  last_sync_ns_ = NowNs();
  last_checkpoint_ = position_;
  if (!durability_.snapshot_dir.empty()) Checkpoint();
  return fm::Status::OK();
}

void Shadow::CommitWal() {
  Span commit(kWalCommit);
  if (!wal_->Commit().ok()) return;
  bool sync = false;
  switch (durability_.wal.sync) {
    case fm::serve::WalSyncMode::kNone:
      break;
    case fm::serve::WalSyncMode::kAlways:
      sync = true;
      break;
    case fm::serve::WalSyncMode::kBatch:
      sync = records_since_sync_ >= durability_.wal.batch_max_records ||
             static_cast<double>(NowNs() - last_sync_ns_) >=
                 durability_.wal.batch_window_seconds * 1e9;
      break;
  }
  if (sync) {
    Span fsync(kWalFsync);
    if (wal_->Sync().ok()) {
      records_since_sync_ = 0;
      last_sync_ns_ = NowNs();
    }
  }
}

void Shadow::Checkpoint() {
  std::string payload;
  {
    Span encode(kSnapEncode);
    payload = fm::serve::EncodeSnapshot(store_, *ledger_, registry_,
                                        position_, compactions_);
  }
  {
    Span write(kSnapWrite);
    if (!fm::serve::WriteSnapshotFile(
             durability_.snapshot_dir, position_, fingerprint_, payload,
             durability_.wal.sync != fm::serve::WalSyncMode::kNone)
             .ok()) {
      return;
    }
  }
  {
    Span prune(kSnapPrune);
    (void)fm::serve::PruneSnapshots(durability_.snapshot_dir,
                                    durability_.snapshot_keep);
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(
      std::filesystem::path(durability_.snapshot_dir) /
          fm::serve::SnapshotFileName(position_),
      ec);
  if (!ec) snapshot_bytes_ += bytes;
  ++snapshots_;
  last_checkpoint_ = position_;
}

Response Shadow::Predict(
    const Request& request,
    const std::shared_ptr<const fm::serve::ModelSnapshot>& snapshot) const {
  Response r;
  if (snapshot == nullptr) {
    r.status = fm::Status::FailedPrecondition(
        "no model published yet; submit a train request first");
    return r;
  }
  if (request.x.size() != options_.dim) {
    r.status = fm::Status::InvalidArgument(
        "predict feature dimensionality " + std::to_string(request.x.size()) +
        " does not match the service's " + std::to_string(options_.dim));
    return r;
  }
  r.model_version = snapshot->version;
  r.value = options_.task == fm::data::TaskKind::kLinear
                ? fm::core::FmLinearRegression::Predict(snapshot->omega,
                                                        request.x)
                : fm::core::FmLogisticRegression::PredictProbability(
                      snapshot->omega, request.x);
  return r;
}

void Shadow::RunInserts(const std::vector<Request>& log, size_t begin,
                        size_t end, std::vector<Response>& out) {
  const size_t count = end - begin;
  Span span(kStoreInsert, count);
  const auto insert_one = [&](size_t i) {
    const fm::Result<fm::serve::TupleId> id =
        store_.Insert(log[i].x, log[i].y);
    if (id.ok()) {
      out[i].id = id.ValueOrDie();
    } else {
      out[i].status = id.status();
    }
  };
  if (count == 1) {
    insert_one(begin);
    return;
  }
  bool uniform = true;
  for (size_t i = begin; i < end && uniform; ++i) {
    uniform = log[i].x.size() == store_.dim();
  }
  if (uniform) {
    fm::data::RegressionDataset batch;
    batch.x = fm::linalg::Matrix(count, store_.dim());
    batch.y = fm::linalg::Vector(count);
    for (size_t i = 0; i < count; ++i) {
      batch.x.SetRow(i, log[begin + i].x);
      batch.y[i] = log[begin + i].y;
    }
    const fm::Result<fm::serve::TupleId> first =
        store_.InsertBatch(batch, pool_);
    if (first.ok()) {
      for (size_t i = 0; i < count; ++i) {
        out[begin + i].id = first.ValueOrDie() + i;
      }
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) insert_one(i);
}

Response Shadow::Train(const Request& request, uint64_t position) {
  Response r;
  if (store_.live_size() == 0) {
    r.status = fm::Status::FailedPrecondition("cannot train on an empty store");
    return r;
  }
  r.status = fm::dp::ValidateEpsilon(request.epsilon);
  if (!r.status.ok()) return r;
  const double worst_case =
      options_.post_processing == fm::core::PostProcessing::kResample
          ? 2.0 * request.epsilon
          : request.epsilon;
  uint64_t reservation = 0;
  {
    Span reserve(kLedgerReserve);
    const fm::Result<uint64_t> reserved =
        ledger_->Reserve(worst_case, "train@" + std::to_string(position));
    if (!reserved.ok()) {
      r.status = reserved.status();
      return r;
    }
    reservation = reserved.ValueOrDie();
  }
  fm::Rng rng(fm::Rng::Fork(options_.seed, position));
  TrainRecord record;
  {
    Span objective(kStoreObjective);
    record.objective = store_.Objective();
  }
  fm::core::FmOptions fm_options;
  fm_options.epsilon = request.epsilon;
  fm_options.post_processing = options_.post_processing;
  fm::Result<fm::baselines::TrainedModel> trained =
      fm::Status::Internal("unset");
  {
    Span fit(kFitObjective);
    trained = fm::baselines::FmAlgorithm(fm_options)
                  .TrainFromObjective(record.objective, options_.task, rng);
  }
  if (!trained.ok()) {
    r.status = trained.status();
    (void)ledger_->Abort(reservation);
    return r;
  }
  const fm::baselines::TrainedModel& model = trained.ValueOrDie();
  {
    Span settle(kLedgerSettle);
    r.status = ledger_->Settle(reservation, model.epsilon_spent);
  }
  if (!r.status.ok()) return r;
  fm::serve::ModelSnapshot snapshot;
  snapshot.algorithm = fm::serve::TrainerKindToString(request.trainer);
  snapshot.task = options_.task;
  snapshot.omega = model.omega;
  snapshot.epsilon_spent = model.epsilon_spent;
  snapshot.is_private = true;
  snapshot.log_position = position;
  snapshot.trained_on = store_.live_size();
  {
    Span publish(kRegistryPublish);
    r.model_version = registry_.Publish(std::move(snapshot));
  }
  r.epsilon_spent = model.epsilon_spent;
  record.rng_seed = fm::Rng::Fork(options_.seed, position);
  record.epsilon = request.epsilon;
  record.omega = model.omega;
  trains_.push_back(std::move(record));
  return r;
}

std::vector<Response> Shadow::Execute(const std::vector<Request>& log) {
  Span call(kCall, log.size());
  std::vector<Response> out(log.size());
  const uint64_t base = position_;
  if (wal_ != nullptr && !log.empty()) {
    {
      Span append(kWalAppend, log.size());
      for (size_t i = 0; i < log.size(); ++i) wal_->Append(base + i, log[i]);
    }
    records_since_sync_ += log.size();
    CommitWal();
  }
  size_t i = 0;
  while (i < log.size()) {
    const RequestKind kind = log[i].kind;
    size_t end = i + 1;
    if (kind == RequestKind::kPredict || kind == RequestKind::kInsert) {
      while (end < log.size() && log[end].kind == kind) ++end;
      if (kind == RequestKind::kPredict) {
        ++predict_runs;
        predict_requests += end - i;
        Span span(kParallelMap, end - i);
        const std::shared_ptr<const fm::serve::ModelSnapshot> snapshot =
            registry_.Latest();
        const auto responses = fm::exec::ParallelMap(
            end - i, [&](size_t k) { return Predict(log[i + k], snapshot); },
            *pool_);
        for (size_t k = 0; k < responses.size(); ++k) {
          out[i + k] = responses[k];
        }
      } else {
        ++insert_runs;
        insert_requests += end - i;
        RunInserts(log, i, end, out);
      }
    } else if (kind == RequestKind::kDelete) {
      {
        Span span(kStoreDelete);
        SpinMicros(plant_delete_delay_us_);
        out[i].status = store_.Delete(log[i].id);
      }
      out[i].id = log[i].id;
      if (out[i].status.ok() && options_.auto_compact) {
        const size_t dead = store_.dead_count();
        if (dead >= options_.compaction_min_dead &&
            static_cast<double>(dead) >=
                options_.compaction_dead_ratio *
                    static_cast<double>(store_.live_size())) {
          Span span(kStoreCompact);
          if (store_.Compact(pool_) > 0) ++compactions_;
        }
      }
    } else if (kind == RequestKind::kUpdate) {
      {
        Span span(kStoreUpdate);
        out[i].status = store_.Update(log[i].id, log[i].x.raw(),
                                      log[i].x.size(), log[i].y);
      }
      out[i].id = log[i].id;
    } else if (kind == RequestKind::kTrain) {
      out[i] = Train(log[i], base + i);
    } else {
      out[i].status = fm::Status::Unimplemented(
          "the benchmark logs never carry this request kind");
    }
    i = end;
  }
  position_ = base + log.size();
  if (wal_ != nullptr && !durability_.snapshot_dir.empty() &&
      durability_.snapshot_every > 0 &&
      position_ - last_checkpoint_ >= durability_.snapshot_every) {
    Checkpoint();
  }
  return out;
}

std::vector<TrainRecord> Shadow::TakeTrains() {
  std::vector<TrainRecord> trains;
  trains.swap(trains_);
  return trains;
}

size_t ProbeTrainPath(const std::vector<TrainRecord>& trains,
                      const fm::serve::ServiceOptions& options,
                      uint64_t* trimmed, uint64_t* fits) {
  size_t mismatches = 0;
  for (const TrainRecord& train : trains) {
    const size_t d = train.objective.dim();
    const double delta =
        options.task == fm::data::TaskKind::kLinear
            ? fm::core::LinearRegressionSensitivity(d)
            : fm::core::LogisticRegressionSensitivity(d);
    fm::Result<fm::opt::QuadraticModel> noisy = fm::Status::Internal("unset");
    {
      fm::Rng rng(train.rng_seed);
      Span span(kPerturb);
      noisy = fm::core::FunctionalMechanism::PerturbQuadratic(
          train.objective, delta, train.epsilon, rng);
    }
    fm::core::FmOptions fm_options;
    fm_options.epsilon = train.epsilon;
    fm_options.post_processing = options.post_processing;
    fm::Result<fm::core::FmFitReport> fit = fm::Status::Internal("unset");
    {
      fm::Rng rng(train.rng_seed);
      Span span(kFitQuadratic);
      fit = fm::core::FunctionalMechanism::FitQuadratic(train.objective,
                                                        delta, fm_options,
                                                        rng);
    }
    if (!fit.ok() || !noisy.ok() ||
        fit.ValueOrDie().omega.size() != train.omega.size() ||
        std::memcmp(fit.ValueOrDie().omega.raw(), train.omega.raw(),
                    train.omega.size() * sizeof(double)) != 0) {
      ++mismatches;
      continue;
    }
    ++*fits;
    if (fit.ValueOrDie().trimmed_eigenvalues > 0) ++*trimmed;
    {
      Span span(kSpectralTrim);
      size_t count = 0;
      (void)fm::core::FunctionalMechanism::SpectralTrimMinimize(
          noisy.ValueOrDie(), &count);
    }
    {
      // The §6.1 regularized matrix M* + λI that kRegularize factorizes.
      fm::linalg::Matrix m = noisy.ValueOrDie().m;
      m.AddToDiagonal(fm_options.regularization_multiplier * std::sqrt(2.0) *
                      delta / train.epsilon);
      Span span(kCholesky);
      (void)fm::linalg::Cholesky::Compute(m);
    }
  }
  return mismatches;
}

namespace {

void WipeDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// Micro-timings of engine dispatch: a predict-sized body through
// exec::ParallelMap and as an inline loop.
void ProbeDispatch(Shadow& shadow, ProbeOutput* out) {
  const size_t dim = shadow.options().dim;
  const auto latest = shadow.registry().Latest();
  const fm::linalg::Vector omega =
      latest != nullptr ? latest->omega : fm::linalg::Vector(dim, 0.1);
  const fm::data::RegressionDataset rows = RandomDataset(4096, dim, 7);
  std::vector<fm::linalg::Vector> xs;
  xs.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) xs.push_back(rows.x.RowVector(i));
  const bool linear = shadow.options().task == fm::data::TaskKind::kLinear;
  const auto body = [&](size_t i) {
    return linear ? fm::core::FmLinearRegression::Predict(omega, xs[i])
                  : fm::core::FmLogisticRegression::PredictProbability(
                        omega, xs[i]);
  };
  volatile double sink = 0.0;
  const auto time_parallel = [&](size_t n, int reps) {
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
      const int64_t start = NowNs();
      const std::vector<double> v =
          fm::exec::ParallelMap(n, body, shadow.pool());
      sink = sink + v[0];
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    return Median(us);
  };
  const auto time_inline = [&](size_t n, int reps, int batch) {
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
      const int64_t start = NowNs();
      for (int b = 0; b < batch; ++b) {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) acc += body(i);
        sink = sink + acc;
      }
      us.push_back(static_cast<double>(NowNs() - start) / 1e3 / batch);
    }
    return Median(us);
  };
  out->parallel_map_7_us = time_parallel(7, 2000);
  out->inline_7_us = time_inline(7, 2000, 64);
  out->parallel_map_4096_us = time_parallel(4096, 200);
  out->inline_4096_us = time_inline(4096, 200, 1);
  out->predict_ns = out->inline_4096_us * 1e3 / 4096.0;
}

// Writes a probe snapshot and WAL of the shadow's end state (non-durable
// workloads), continuing the workload's stream for the WAL records.
fm::serve::DurabilityOptions ProbeDurableFiles(const ProbeInput& input,
                                               ProbeOutput* out) {
  Shadow& shadow = *input.shadow;
  fm::serve::DurabilityOptions files;
  files.wal.path = input.probe_dir + "/probe.fmwal";
  files.wal.sync = fm::serve::WalSyncMode::kBatch;
  files.snapshot_dir = input.probe_dir + "/snapshots";
  WipeDir(input.probe_dir);
  std::filesystem::create_directories(input.probe_dir);
  const uint64_t fingerprint =
      fm::serve::OptionsFingerprint(shadow.options());
  for (int r = 0; r < 3; ++r) {
    std::string payload;
    {
      Span span(kSnapEncode);
      payload = fm::serve::EncodeSnapshot(shadow.store(), shadow.ledger(),
                                          shadow.registry(),
                                          shadow.position(),
                                          shadow.compactions());
    }
    Span span(kSnapWrite);
    if (fm::serve::WriteSnapshotFile(files.snapshot_dir, shadow.position(),
                                     fingerprint, payload, /*sync=*/true)
            .ok()) {
      ++out->snapshot_writes;
      out->snapshot_bytes +=
          std::filesystem::file_size(std::filesystem::path(files.snapshot_dir) /
                                     fm::serve::SnapshotFileName(
                                         shadow.position()));
    }
  }
  fm::serve::WalOptions wal_options = files.wal;
  wal_options.sync = fm::serve::WalSyncMode::kNone;
  auto wal = fm::serve::Wal::Open(wal_options, fingerprint);
  if (!wal.ok()) return files;
  fm::serve::Wal& w = *wal.ValueOrDie();
  const int64_t start = NowNs();
  int64_t last_sync = start;
  size_t since_sync = 0;
  uint64_t position = shadow.position();
  while (out->wal_records < input.max_probe_records &&
         NowNs() - start < 300000000) {
    const std::vector<Request> call = input.next_call();
    {
      Span span(kWalAppend, call.size());
      for (const Request& request : call) w.Append(position++, request);
    }
    Span commit(kWalCommit);
    if (!w.Commit().ok()) break;
    ++out->wal_commits;
    out->wal_records += call.size();
    since_sync += call.size();
    if (since_sync >= files.wal.batch_max_records ||
        static_cast<double>(NowNs() - last_sync) >=
            files.wal.batch_window_seconds * 1e9) {
      Span fsync(kWalFsync);
      (void)w.Sync();
      since_sync = 0;
      last_sync = NowNs();
    }
  }
  out->wal_bytes = w.file_bytes() - 24;  // minus the FMWAL001 header
  return files;
}

// Snapshot load + decode, WAL scan, and tail replay — Service::Recover's
// steps through their public functions.
void ProbeRecovery(const ProbeInput& input,
                   const fm::serve::DurabilityOptions& files,
                   ProbeOutput* out) {
  Shadow& shadow = *input.shadow;
  const uint64_t fingerprint =
      fm::serve::OptionsFingerprint(shadow.options());
  for (int r = 0; r < 3; ++r) {
    fm::Result<fm::serve::SnapshotContents> contents =
        fm::Status::Internal("unset");
    {
      Span span(kSnapLoad);
      contents = fm::serve::LoadLatestSnapshot(files.snapshot_dir, fingerprint);
    }
    if (!contents.ok()) {
      out->recovered_equal = false;
      return;
    }
    Shadow recovered(shadow.options(), &shadow.pool(), 0.0);
    {
      Span span(kSnapDecode);
      if (!fm::serve::DecodeSnapshotComponents(
               contents.ValueOrDie().components, &recovered.store(),
               &recovered.ledger(), &recovered.registry())
               .ok()) {
        out->recovered_equal = false;
        return;
      }
    }
    const uint64_t snapshot_position = contents.ValueOrDie().next_position;
    fm::Result<fm::serve::WalReplay> replay = fm::Status::Internal("unset");
    {
      Span span(kWalReadAll);
      replay = fm::serve::Wal::ReadAll(files.wal.path, fingerprint);
    }
    if (!replay.ok()) {
      out->recovered_equal = false;
      return;
    }
    std::vector<Request> tail;
    for (const fm::serve::WalRecord& record : replay.ValueOrDie().records) {
      if (record.position >= snapshot_position) tail.push_back(record.request);
    }
    recovered.SetPosition(snapshot_position);
    TraceEnable(false);
    const int64_t start = NowNs();
    (void)recovered.Execute(tail);
    const int64_t nanos = NowNs() - start;
    TraceEnable(true);
    TraceRecord(kRecoveryReplay, nanos, tail.size());
    if (input.durable &&
        (recovered.position() != shadow.position() ||
         !recovered.store().StoreStateBitwiseEquals(shadow.store()))) {
      out->recovered_equal = false;
    }
  }
}

// Store operations the log never called, on a copy of the end state.
void ProbeStore(Shadow& shadow, double plant_delete_delay_us) {
  fm::serve::IncrementalObjective copy = shadow.store();
  fm::Rng rng(11);
  // Every id ever assigned is below bootstrap + inserts, and both are
  // bounded by the slots plus twice the log position.
  const uint64_t id_bound =
      copy.slot_count() + 2 * shadow.position() + 1;
  const auto live_id = [&]() {
    fm::serve::TupleId id = 0;
    do {
      id = rng.UniformInt(id_bound);
    } while (!copy.Contains(id));
    return id;
  };
  const bool probe_delete = TraceStats(kStoreDelete, kReplay).count == 0;
  const bool probe_update = TraceStats(kStoreUpdate, kReplay).count == 0;
  const size_t dim = copy.dim();
  fm::data::RegressionDataset rows = RandomDataset(64, dim, 13);
  if (copy.kind() == fm::core::ObjectiveKind::kTruncatedLogistic) {
    for (size_t k = 0; k < rows.size(); ++k) rows.y[k] = rows.y[k] > 0.0;
  }
  for (size_t k = 0; k < 64 && copy.live_size() > 1; ++k) {
    if (probe_update) {
      const fm::serve::TupleId id = live_id();
      Span span(kStoreUpdate);
      (void)copy.Update(id, rows.x.Row(k), dim, rows.y[k]);
    }
    if (probe_delete) {
      const fm::serve::TupleId id = live_id();
      Span span(kStoreDelete);
      SpinMicros(plant_delete_delay_us);
      (void)copy.Delete(id);
    }
  }
  if (TraceStats(kStoreCompact, kReplay).count == 0) {
    for (int r = 0; r < 3; ++r) {
      fm::serve::IncrementalObjective holes = copy;
      Span span(kStoreCompact);
      (void)holes.Compact(&shadow.pool());
    }
  }
  if (TraceStats(kStoreObjective, kReplay).count == 0) {
    for (int r = 0; r < 16; ++r) {
      Span span(kStoreObjective);
      volatile double beta = copy.Objective().beta;
      (void)beta;
    }
  }
}

// The offline engine's layers at the workload's shape.
void ProbeOffline(Shadow& shadow, fm::data::TaskKind task, ProbeOutput* out) {
  const fm::data::RegressionDataset data = shadow.store().Materialize();
  const auto kind = fm::core::ObjectiveKindForTask(task);
  std::vector<double> build_ms, fold_us, error_ms;
  std::vector<size_t> test_rows;
  for (size_t i = 0; i < data.size(); i += 5) test_rows.push_back(i);
  const auto latest = shadow.registry().Latest();
  const fm::linalg::Vector omega = latest != nullptr
                                       ? latest->omega
                                       : fm::linalg::Vector(data.dim(), 0.1);
  volatile double sink = 0.0;
  for (int r = 0; r < 3; ++r) {
    int64_t start = NowNs();
    const auto cache =
        fm::core::ObjectiveAccumulator::Build(data, kind, &shadow.pool());
    build_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    for (int f = 0; f < 5; ++f) {
      start = NowNs();
      sink = sink + cache.TrainObjectiveForFold(test_rows).beta;
      fold_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      start = NowNs();
      sink = sink + fm::eval::TaskError(task, omega, data, test_rows);
      error_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    }
  }
  out->accumulator_build_ms = Median(build_ms);
  out->fold_objective_us = Median(fold_us);
  out->task_error_ms = Median(error_ms);
}

}  // namespace

void Shadow::SetPosition(uint64_t position) { position_ = position; }

ProbeOutput RunLayerProbes(const ProbeInput& input) {
  ProbeOutput out;
  TraceSetPhase(kProbe);
  ProbeDispatch(*input.shadow, &out);
  const fm::serve::DurabilityOptions files =
      input.durable ? input.durability : ProbeDurableFiles(input, &out);
  ProbeRecovery(input, files, &out);
  ProbeStore(*input.shadow, input.shadow->plant_delete_delay_us());
  ProbeOffline(*input.shadow, input.task, &out);
  if (!input.durable) WipeDir(input.probe_dir);
  TraceSetPhase(kReplay);
  return out;
}

void EmitLayerMetrics(const LayerInputs& in, RunResult* result) {
  const auto p50_us = [](Layer layer) {
    return TraceStatsPreferReplay(layer).P50Us();
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const LayerStats root = TraceStats(in.root, kReplay);
  const double layer_ns = root.total_ns - root.self_ns;
  const bool offline = in.root == kCvCall;

  result->Add("exec.tasks_per_op", in.tasks_per_op, "count");
  result->Add("exec.parallel_map_7_us", in.probe.parallel_map_7_us, "us");
  result->Add("exec.inline_7_us", in.probe.inline_7_us, "us");
  result->Add("exec.parallel_map_4096_us", in.probe.parallel_map_4096_us,
              "us");
  result->Add("exec.inline_4096_us", in.probe.inline_4096_us, "us");

  result->Add("serve.engine.overhead_ratio",
              ratio(in.untraced_call_ns, layer_ns), "ratio");
  result->Add("serve.engine.predict_run_len", in.predict_run_len, "count");
  result->Add("serve.engine.insert_run_len", in.insert_run_len, "count");

  result->Add("serve.store.delete_us", p50_us(kStoreDelete), "us");
  result->Add("serve.store.update_us", p50_us(kStoreUpdate), "us");
  result->Add("serve.store.compact_ms", p50_us(kStoreCompact) / 1e3, "ms");
  result->Add("serve.store.compactions", static_cast<double>(in.compactions),
              "count");
  result->Add("serve.store.insert_ns_per_row", in.insert_ns_per_row, "ns");
  result->Add("serve.store.objective_us", p50_us(kStoreObjective), "us");

  result->Add("core.perturb_us", p50_us(kPerturb), "us");
  result->Add("core.fit_quadratic_us", p50_us(kFitQuadratic), "us");
  result->Add("core.spectral_trim_us", p50_us(kSpectralTrim), "us");
  result->Add("core.trim_share",
              ratio(static_cast<double>(in.trimmed),
                    static_cast<double>(in.fits)),
              "ratio");
  result->Add("linalg.cholesky_us", p50_us(kCholesky), "us");
  result->Add("serve.ledger.reserve_settle_us",
              p50_us(kLedgerReserve) + p50_us(kLedgerSettle), "us");
  result->Add("serve.registry.publish_us", p50_us(kRegistryPublish), "us");
  result->Add("core.predict_ns", in.probe.predict_ns, "ns");

  const LayerStats append = TraceStatsPreferReplay(kWalAppend);
  result->Add("serve.wal.encode_ns",
              ratio(append.total_ns, static_cast<double>(append.units)), "ns");
  result->Add("serve.wal.commit_us_p50", p50_us(kWalCommit), "us");
  result->Add("serve.wal.fsync_us_p50", p50_us(kWalFsync), "us");
  result->Add("serve.wal.records_per_commit",
              ratio(static_cast<double>(in.wal_records),
                    static_cast<double>(in.wal_commits)),
              "count");
  result->Add("serve.wal.bytes_per_record",
              ratio(static_cast<double>(in.wal_bytes),
                    static_cast<double>(in.wal_records)),
              "bytes");

  result->Add("serve.snapshot.encode_ms", p50_us(kSnapEncode) / 1e3, "ms");
  result->Add("serve.snapshot.write_ms", p50_us(kSnapWrite) / 1e3, "ms");
  result->Add("serve.snapshot.bytes",
              ratio(static_cast<double>(in.snapshot_bytes),
                    static_cast<double>(in.snapshot_writes)),
              "bytes");
  result->Add("serve.snapshot.load_ms", p50_us(kSnapLoad) / 1e3, "ms");
  result->Add("serve.snapshot.decode_ms", p50_us(kSnapDecode) / 1e3, "ms");
  result->Add("serve.wal.read_all_ms", p50_us(kWalReadAll) / 1e3, "ms");
  result->Add("serve.recovery.replay_ms", p50_us(kRecoveryReplay) / 1e3, "ms");

  result->Add("core.accumulator_build_ms",
              offline ? p50_us(kAccumBuild) / 1e3
                      : in.probe.accumulator_build_ms,
              "ms");
  result->Add("core.fold_objective_us",
              offline ? p50_us(kFoldObjective) : in.probe.fold_objective_us,
              "us");
  result->Add("core.fit_objective_us", p50_us(kFitObjective), "us");
  result->Add("eval.task_error_ms",
              offline ? p50_us(kTaskError) / 1e3 : in.probe.task_error_ms,
              "ms");

  result->Add("obs.metrics_off_on_ratio", in.metrics_off_on_ratio, "ratio");
  result->Add("trace.coverage", TraceCoverage(), "ratio");
  result->Add("trace.overhead_ratio", ratio(in.untraced_call_ns, root.total_ns),
              "ratio");
}

}  // namespace perfbench
