#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>

#include "common/io_util.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace fm::serve {

namespace {

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

// Draws a contract-satisfying feature vector: ‖x‖₂ ≤ 0.9 by construction.
linalg::Vector RandomTuple(Rng& rng, size_t dim) {
  const double scale = 0.9 / std::sqrt(static_cast<double>(dim));
  linalg::Vector x(dim);
  for (size_t j = 0; j < dim; ++j) x[j] = rng.Uniform(-scale, scale);
  return x;
}

double RandomLabel(Rng& rng, data::TaskKind task) {
  return task == data::TaskKind::kLinear
             ? rng.Uniform(-1.0, 1.0)
             : (rng.Bernoulli(0.5) ? 1.0 : 0.0);
}

// Skewed pick from a live-id list: squaring the uniform draw biases toward
// low indices (old ids), so the same tuples get deleted/updated repeatedly
// — the id-reuse churn the slot/compaction machinery must stay exact under.
size_t SkewedIndex(Rng& rng, size_t size) {
  const double u = rng.Uniform();
  const size_t index = static_cast<size_t>(u * u * static_cast<double>(size));
  return std::min(index, size - 1);
}

}  // namespace

ServiceOptions WorkloadServiceOptions(const WorkloadOptions& options,
                                      uint64_t seed) {
  ServiceOptions service;
  service.dim = options.dim;
  service.task = options.task;
  service.total_epsilon = options.total_epsilon;
  // The service's own train-noise seed is derived from the workload seed so
  // two workloads never share noise streams; stream 0..n-1 are the request
  // forks, so derive from a disjoint index.
  service.seed = Rng::Fork(seed, ~uint64_t{0});
  if (options.forced_compaction) {
    service.auto_compact = false;
  } else {
    service.auto_compact = true;
    // A low floor so the generated churn actually triggers the policy.
    service.compaction_min_dead = 12;
    service.compaction_dead_ratio = 0.5;
  }
  return service;
}

std::vector<Request> GenerateWorkload(const WorkloadOptions& options,
                                      uint64_t seed) {
  std::vector<Request> log;
  log.reserve(options.requests);
  // Deterministic id bookkeeping (ids are assigned by insert order).
  std::vector<TupleId> live;
  std::vector<TupleId> dead;
  uint64_t next_id = 0;

  for (size_t i = 0; i < options.requests; ++i) {
    Rng rng(Rng::Fork(seed, i));

    // Seed the store before anything else can run.
    if (live.size() < 6) {
      log.push_back(Request::Insert(RandomTuple(rng, options.dim),
                                    RandomLabel(rng, options.task)));
      live.push_back(next_id++);
      continue;
    }

    if (rng.Uniform() < options.malformed_fraction) {
      // Malformed requests: typed errors that must mutate nothing and
      // replay bit-identically at their log position.
      switch (rng.UniformInt(6)) {
        case 0: {  // contract violation: ‖x‖₂ > 1
          linalg::Vector x(options.dim);
          x[0] = 2.0;
          log.push_back(Request::Insert(std::move(x), 0.0));
          break;
        }
        case 1:  // dimension mismatch on predict
          log.push_back(Request::Predict(RandomTuple(rng, options.dim + 1)));
          break;
        case 2:  // update with mismatched dimensionality
          log.push_back(Request::Update(live[SkewedIndex(rng, live.size())],
                                        RandomTuple(rng, options.dim + 2),
                                        0.0));
          break;
        case 3:  // delete/update of an id that was never assigned
          if (rng.Bernoulli(0.5)) {
            log.push_back(Request::Delete(next_id + 1000 + i));
          } else {
            log.push_back(Request::Update(next_id + 1000 + i,
                                          RandomTuple(rng, options.dim),
                                          RandomLabel(rng, options.task)));
          }
          break;
        case 4:  // dead-id reuse: delete or update an already-dead id
          if (!dead.empty()) {
            const TupleId id = dead[SkewedIndex(rng, dead.size())];
            if (rng.Bernoulli(0.5)) {
              log.push_back(Request::Delete(id));
            } else {
              log.push_back(Request::Update(id, RandomTuple(rng, options.dim),
                                            RandomLabel(rng, options.task)));
            }
          } else {
            log.push_back(Request::Delete(next_id + 1000 + i));
          }
          break;
        case 5:  // invalid ε on a private train
        default:
          log.push_back(Request::Train(TrainerKind::kFunctionalMechanism,
                                       rng.Bernoulli(0.5) ? 0.0 : -1.0));
          break;
      }
      continue;
    }

    const double p = rng.Uniform();
    if (p < 0.32) {
      log.push_back(Request::Insert(RandomTuple(rng, options.dim),
                                    RandomLabel(rng, options.task)));
      live.push_back(next_id++);
    } else if (p < 0.47) {
      const size_t v = SkewedIndex(rng, live.size());
      log.push_back(Request::Delete(live[v]));
      dead.push_back(live[v]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (p < 0.57) {
      log.push_back(Request::Update(live[SkewedIndex(rng, live.size())],
                                    RandomTuple(rng, options.dim),
                                    RandomLabel(rng, options.task)));
    } else if (p < 0.72) {
      log.push_back(Request::Predict(RandomTuple(rng, options.dim)));
    } else if (p < 0.80) {
      log.push_back(Request::Evaluate());
    } else if (p < 0.84) {
      if (options.forced_compaction) {
        log.push_back(Request::Compact());
      } else {
        // Policy workloads leave compaction to the auto trigger; spend the
        // slot on more churn instead.
        log.push_back(Request::Insert(RandomTuple(rng, options.dim),
                                      RandomLabel(rng, options.task)));
        live.push_back(next_id++);
      }
    } else if (p < 0.93) {
      // Private trains walk the ledger toward exhaustion; once spent, the
      // same requests exercise the deterministic rejection path.
      log.push_back(Request::Train(TrainerKind::kFunctionalMechanism,
                                   rng.Bernoulli(0.2) ? 100.0 : 0.4));
    } else if (p < 0.97) {
      log.push_back(Request::Train(TrainerKind::kTruncated, 0.0));
    } else {
      log.push_back(Request::Train(TrainerKind::kNoPrivacy, 0.0));
    }
  }
  return log;
}

// ---------------------------------------------------------------------------
// Repro artifacts
// ---------------------------------------------------------------------------

namespace {

constexpr char kReproMagic[8] = {'F', 'M', 'F', 'U', 'Z', 'Z', 'R', '1'};
constexpr uint32_t kReproVersion = 1;

// The semantic ServiceOptions fields — the same set OptionsFingerprint
// covers, so artifact and WAL/snapshot compatibility agree on what matters.
void EncodeServiceOptions(std::string* out, const ServiceOptions& options) {
  io::AppendU64(out, options.dim);
  io::AppendU8(out, static_cast<uint8_t>(options.task));
  io::AppendU8(out, static_cast<uint8_t>(options.post_processing));
  io::AppendDouble(out, options.total_epsilon);
  io::AppendU64(out, options.seed);
  io::AppendU8(out, options.auto_compact ? 1 : 0);
  io::AppendDouble(out, options.compaction_dead_ratio);
  io::AppendU64(out, options.compaction_min_dead);
}

Status DecodeServiceOptions(io::ByteReader& reader, ServiceOptions* out) {
  uint64_t dim = 0;
  uint8_t task = 0;
  uint8_t post = 0;
  uint8_t auto_compact = 0;
  uint64_t min_dead = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&dim));
  FM_RETURN_NOT_OK(reader.ReadU8(&task));
  FM_RETURN_NOT_OK(reader.ReadU8(&post));
  FM_RETURN_NOT_OK(reader.ReadDouble(&out->total_epsilon));
  FM_RETURN_NOT_OK(reader.ReadU64(&out->seed));
  FM_RETURN_NOT_OK(reader.ReadU8(&auto_compact));
  FM_RETURN_NOT_OK(reader.ReadDouble(&out->compaction_dead_ratio));
  FM_RETURN_NOT_OK(reader.ReadU64(&min_dead));
  if (task > static_cast<uint8_t>(data::TaskKind::kLogistic)) {
    return Status::IoError("repro artifact holds unknown task kind " +
                           std::to_string(task));
  }
  if (post > static_cast<uint8_t>(core::PostProcessing::kAdaptive)) {
    return Status::IoError("repro artifact holds unknown post-processing " +
                           std::to_string(post));
  }
  if (auto_compact > 1) {
    return Status::IoError("repro artifact auto_compact is neither 0 nor 1");
  }
  out->dim = static_cast<size_t>(dim);
  out->task = static_cast<data::TaskKind>(task);
  out->post_processing = static_cast<core::PostProcessing>(post);
  out->auto_compact = auto_compact == 1;
  out->compaction_min_dead = static_cast<size_t>(min_dead);
  out->pool = nullptr;
  return Status::OK();
}

}  // namespace

Status WriteReproArtifact(const std::string& path,
                          const ServiceOptions& options,
                          const std::vector<Request>& log) {
  std::string out;
  io::AppendBytes(&out, kReproMagic, sizeof(kReproMagic));
  io::AppendU32(&out, kReproVersion);
  EncodeServiceOptions(&out, options);
  io::AppendU64(&out, log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    out.append(Wal::EncodeRecord(i, log[i]));
  }
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  if (!parent.empty()) {
    FM_RETURN_NOT_OK(io::CreateDirectories(parent));
  }
  return io::WriteFileAtomic(path, out, /*sync=*/false);
}

Result<ReproArtifact> ReadReproArtifact(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string file, io::ReadFileToString(path));
  if (file.size() < sizeof(kReproMagic) ||
      std::memcmp(file.data(), kReproMagic, sizeof(kReproMagic)) != 0) {
    return Status::IoError(path + " is not a FMFUZZR1 repro artifact");
  }
  io::ByteReader reader(file.data() + sizeof(kReproMagic),
                        file.size() - sizeof(kReproMagic));
  uint32_t version = 0;
  FM_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kReproVersion) {
    return Status::IoError("repro artifact version " +
                           std::to_string(version) + " unsupported");
  }
  ReproArtifact artifact;
  FM_RETURN_NOT_OK(DecodeServiceOptions(reader, &artifact.options));
  uint64_t count = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    WalRecord record;
    FM_RETURN_NOT_OK(Wal::DecodeRecord(reader, &record));
    if (record.position != i) {
      return Status::IoError("repro artifact record " + std::to_string(i) +
                             " carries position " +
                             std::to_string(record.position));
    }
    artifact.log.push_back(std::move(record.request));
  }
  if (!reader.empty()) {
    return Status::IoError("repro artifact has trailing bytes");
  }
  return artifact;
}

// ---------------------------------------------------------------------------
// Differential replay
// ---------------------------------------------------------------------------

const char* BatchingModeToString(BatchingMode mode) {
  switch (mode) {
    case BatchingMode::kCheckpointChunks:
      return "chunks";
    case BatchingMode::kSingle:
      return "single";
    case BatchingMode::kRandomChunks:
      return "random";
    case BatchingMode::kDrain:
      return "drain";
  }
  return "?";
}

std::string ReplayKnobs::Name() const {
  std::string name = "threads=" + std::to_string(threads) +
                     ",batching=" + BatchingModeToString(batching);
  if (crash_points > 0) {
    name += ",crashes=" + std::to_string(crash_points);
  }
  if (!metrics) {
    name += ",metrics=off";
  }
  return name;
}

namespace {

// Byte image of one Response. The message is included: a divergent error
// string is a determinism break like any other (messages embed positions
// and ε values, never execution configuration).
std::string EncodeResponse(const Response& response) {
  std::string out;
  io::AppendU8(&out, static_cast<uint8_t>(response.status.code()));
  io::AppendLengthPrefixed(&out, response.status.message());
  io::AppendU64(&out, response.id);
  io::AppendDouble(&out, response.value);
  io::AppendU64(&out, response.model_version);
  io::AppendDouble(&out, response.epsilon_spent);
  return out;
}

std::string CaptureState(const Service& service) {
  return EncodeSnapshot(service.objective(), service.accountant(),
                        service.registry(), service.log_position(),
                        service.compaction_count());
}

// The next chunk size for a schedule, ≥ 0 (0 models an empty batch) and
// capped so chunk boundaries land exactly on every capture position.
size_t NextChunkSize(BatchingMode mode, Rng& rng, size_t remaining_to_capture,
                     size_t log_remaining) {
  switch (mode) {
    case BatchingMode::kCheckpointChunks:
      return remaining_to_capture;
    case BatchingMode::kSingle:
      return std::min<size_t>(1, log_remaining);
    case BatchingMode::kRandomChunks:
    case BatchingMode::kDrain:
      if (rng.Uniform() < 0.10) return 0;  // empty batch
      return std::min(remaining_to_capture,
                      1 + static_cast<size_t>(rng.UniformInt(7)));
  }
  return remaining_to_capture;
}

}  // namespace

Result<ReplayObservation> ExecuteReplay(const ServiceOptions& options,
                                        const std::vector<Request>& log,
                                        const ReplayKnobs& knobs,
                                        uint64_t checkpoint_every,
                                        const std::string& scratch_dir) {
  if (checkpoint_every == 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  const bool durable = knobs.crash_points > 0;
  if (durable && scratch_dir.empty()) {
    return Status::InvalidArgument(
        "crash injection needs a scratch_dir for WAL/snapshot files");
  }

  exec::ThreadPool pool(knobs.threads);
  ServiceOptions run_options = options;
  run_options.pool = &pool;
  run_options.enable_metrics = knobs.metrics;

  DurabilityOptions durability;
  if (durable) {
    FM_RETURN_NOT_OK(io::CreateDirectories(scratch_dir));
    durability.wal.path = scratch_dir + "/replay.fmwal";
    // fsync-free: write(2) happens per commit, so truncating the file is
    // exactly the crash model (an arbitrary lost suffix).
    durability.wal.sync = WalSyncMode::kNone;
    durability.snapshot_dir = scratch_dir + "/snapshots";
    durability.snapshot_keep = 3;
    FM_RETURN_NOT_OK(io::RemoveFileIfExists(durability.wal.path));
    std::error_code ec;
    std::filesystem::remove_all(durability.snapshot_dir, ec);
  }

  Rng schedule(knobs.schedule_seed);
  // Crash targets: after executing past position c, destroy + truncate +
  // recover. Distinct positions in [1, log.size()].
  std::vector<uint64_t> crashes;
  if (durable && !log.empty()) {
    for (size_t c = 0; c < knobs.crash_points; ++c) {
      crashes.push_back(1 + schedule.UniformInt(log.size()));
    }
    std::sort(crashes.begin(), crashes.end());
    crashes.erase(std::unique(crashes.begin(), crashes.end()), crashes.end());
  }

  FM_ASSIGN_OR_RETURN(std::unique_ptr<Service> service,
                      Service::Create(run_options));
  uint64_t header_bytes = 0;
  if (durable) {
    FM_RETURN_NOT_OK(service->EnableDurability(durability));
    FM_ASSIGN_OR_RETURN(header_bytes, io::FileSize(durability.wal.path));
  }

  ReplayObservation observation;
  observation.responses.resize(log.size());

  // Capture positions: multiples of checkpoint_every plus the end of log.
  auto next_capture = [&](uint64_t from) {
    const uint64_t next =
        (from / checkpoint_every + 1) * checkpoint_every;
    return std::min<uint64_t>(next, log.size());
  };

  uint64_t position = 0;  // == service->log_position() throughout
  if (position % checkpoint_every == 0) {
    observation.state[position] = CaptureState(*service);
  }
  size_t next_crash = 0;
  while (position < log.size()) {
    const uint64_t capture_at = next_capture(position);
    const size_t chunk = NextChunkSize(
        knobs.batching, schedule, static_cast<size_t>(capture_at - position),
        log.size() - static_cast<size_t>(position));
    const auto begin =
        log.begin() + static_cast<std::ptrdiff_t>(position);
    const std::vector<Request> batch(begin,
                                     begin + static_cast<std::ptrdiff_t>(chunk));
    std::vector<Response> responses;
    if (knobs.batching == BatchingMode::kDrain) {
      for (const Request& request : batch) service->Enqueue(request);
      responses = service->Drain();
    } else {
      responses = service->ExecuteLog(batch);
    }
    if (responses.size() != batch.size()) {
      return Status::Internal("replay produced " +
                              std::to_string(responses.size()) +
                              " responses for a batch of " +
                              std::to_string(batch.size()));
    }
    for (size_t j = 0; j < responses.size(); ++j) {
      if (responses[j].status.code() == StatusCode::kIoError) {
        return Status::IoError("replay hit an IO error at position " +
                               std::to_string(position + j) + ": " +
                               responses[j].status.ToString());
      }
      observation.responses[position + j] = EncodeResponse(responses[j]);
    }
    position += chunk;
    if (position == capture_at &&
        (position % checkpoint_every == 0 || position == log.size())) {
      observation.state[position] = CaptureState(*service);
    }
    if (durable && schedule.Uniform() < 0.15) {
      FM_RETURN_NOT_OK(service->Checkpoint());
    }

    // Crash/recover when the run has executed past the next crash target.
    if (next_crash < crashes.size() && position >= crashes[next_crash]) {
      ++next_crash;
      service.reset();  // whatever reached the file is all that survives
      FM_ASSIGN_OR_RETURN(const uint64_t size,
                          io::FileSize(durability.wal.path));
      const uint64_t cut =
          header_bytes + schedule.UniformInt(size - header_bytes + 1);
      FM_RETURN_NOT_OK(io::TruncateFile(durability.wal.path, cut));
      FM_ASSIGN_OR_RETURN(service,
                          Service::Recover(run_options, durability));
      // The client re-submits everything the crash lost; re-executed
      // positions overwrite their observation slots (the determinism
      // contract makes the overwrite value-neutral).
      position = service->log_position();
      if (position > log.size()) {
        return Status::Internal("recovered past the end of the log");
      }
    }
  }
  return observation;
}

Divergence CompareObservations(const ReplayObservation& reference,
                               const ReplayObservation& candidate,
                               const ReplayKnobs& candidate_knobs) {
  Divergence divergence;
  divergence.knobs = candidate_knobs;
  divergence.knob_name = candidate_knobs.Name();

  uint64_t first_response = ~uint64_t{0};
  const size_t positions =
      std::max(reference.responses.size(), candidate.responses.size());
  for (size_t i = 0; i < positions; ++i) {
    const std::string* a =
        i < reference.responses.size() ? &reference.responses[i] : nullptr;
    const std::string* b =
        i < candidate.responses.size() ? &candidate.responses[i] : nullptr;
    if (a == nullptr || b == nullptr || *a != *b) {
      first_response = i;
      break;
    }
  }

  uint64_t first_state = ~uint64_t{0};
  for (const auto& [position, bytes] : reference.state) {
    const auto it = candidate.state.find(position);
    if (it == candidate.state.end() || it->second != bytes) {
      first_state = position;
      break;
    }
  }

  if (first_response == ~uint64_t{0} && first_state == ~uint64_t{0}) {
    return divergence;
  }
  divergence.diverged = true;
  if (first_response <= first_state) {
    divergence.position = first_response;
    divergence.what = "response";
  } else {
    divergence.position = first_state;
    divergence.what = "state";
  }
  return divergence;
}

std::vector<ReplayKnobs> EnumerateKnobs(const DifferentialOptions& options) {
  std::vector<ReplayKnobs> knobs;
  uint64_t run = 0;
  for (const size_t threads : options.thread_counts) {
    for (const BatchingMode batching : options.batchings) {
      ReplayKnobs k;
      k.threads = threads;
      k.batching = batching;
      k.schedule_seed = Rng::Fork(options.schedule_seed, run++);
      knobs.push_back(k);
    }
    if (options.crash_points > 0) {
      ReplayKnobs k;
      k.threads = threads;
      k.batching = BatchingMode::kRandomChunks;
      k.crash_points = options.crash_points;
      k.schedule_seed = Rng::Fork(options.schedule_seed, run++);
      knobs.push_back(k);
    }
    {
      // The metrics axis: one metrics-off run per thread count. Telemetry
      // must be observation-only, so disabling it must still reproduce the
      // metrics-on reference byte for byte.
      ReplayKnobs k;
      k.threads = threads;
      k.batching = BatchingMode::kRandomChunks;
      k.metrics = false;
      k.schedule_seed = Rng::Fork(options.schedule_seed, run++);
      knobs.push_back(k);
    }
  }
  return knobs;
}

namespace {

// The reference execution every combination must reproduce byte for byte.
ReplayKnobs ReferenceKnobs(const DifferentialOptions& options) {
  ReplayKnobs reference;
  reference.threads = 1;
  reference.batching = BatchingMode::kCheckpointChunks;
  reference.schedule_seed = Rng::Fork(options.schedule_seed, ~uint64_t{0});
  return reference;
}

// Scratch subdirectory for one knob run, removed afterwards by the caller.
std::string RunScratchDir(const DifferentialOptions& options, size_t index) {
  return options.scratch_dir + "/run" + std::to_string(index);
}

}  // namespace

Result<Divergence> RunDifferential(const ServiceOptions& service_options,
                                   const std::vector<Request>& log,
                                   const DifferentialOptions& options) {
  FM_ASSIGN_OR_RETURN(
      const ReplayObservation reference,
      ExecuteReplay(service_options, log, ReferenceKnobs(options),
                    options.checkpoint_every, /*scratch_dir=*/""));
  const std::vector<ReplayKnobs> matrix = EnumerateKnobs(options);
  for (size_t i = 0; i < matrix.size(); ++i) {
    const ReplayKnobs& knobs = matrix[i];
    std::string scratch;
    if (knobs.crash_points > 0) {
      if (options.scratch_dir.empty()) {
        return Status::InvalidArgument(
            "DifferentialOptions.scratch_dir is required when crash runs "
            "are enabled");
      }
      scratch = RunScratchDir(options, i);
    }
    const Result<ReplayObservation> candidate = ExecuteReplay(
        service_options, log, knobs, options.checkpoint_every, scratch);
    if (!scratch.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(scratch, ec);
    }
    FM_RETURN_NOT_OK(candidate.status());
    const Divergence divergence =
        CompareObservations(reference, candidate.ValueOrDie(), knobs);
    if (divergence.diverged) return divergence;
  }
  Divergence clean;
  return clean;
}

// ---------------------------------------------------------------------------
// Delta-debugging minimization
// ---------------------------------------------------------------------------

namespace {

// True when `candidate` still diverges between the reference knobs and the
// single combination the full differential identified.
Result<bool> StillDiverges(const ServiceOptions& service_options,
                           const std::vector<Request>& candidate,
                           const ReplayKnobs& knobs,
                           const DifferentialOptions& options,
                           size_t evaluation) {
  FM_ASSIGN_OR_RETURN(
      const ReplayObservation reference,
      ExecuteReplay(service_options, candidate, ReferenceKnobs(options),
                    options.checkpoint_every, /*scratch_dir=*/""));
  std::string scratch;
  if (knobs.crash_points > 0) {
    scratch = options.scratch_dir + "/minimize" + std::to_string(evaluation);
  }
  const Result<ReplayObservation> run = ExecuteReplay(
      service_options, candidate, knobs, options.checkpoint_every, scratch);
  if (!scratch.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
  FM_RETURN_NOT_OK(run.status());
  return CompareObservations(reference, run.ValueOrDie(), knobs).diverged;
}

}  // namespace

Result<MinimizeResult> MinimizeDivergingLog(
    const ServiceOptions& service_options, const std::vector<Request>& log,
    const DifferentialOptions& options) {
  FM_ASSIGN_OR_RETURN(Divergence initial,
                      RunDifferential(service_options, log, options));
  if (!initial.diverged) {
    return Status::FailedPrecondition(
        "the log does not diverge; nothing to minimize");
  }

  MinimizeResult result;
  result.log = log;
  result.divergence = initial;

  // Classic ddmin over request subsequences: try dropping each of n chunks;
  // on success restart at coarser granularity, otherwise refine.
  size_t n = 2;
  while (result.log.size() >= 2) {
    const size_t size = result.log.size();
    n = std::min(n, size);
    bool reduced = false;
    for (size_t c = 0; c < n && !reduced; ++c) {
      const size_t begin = c * size / n;
      const size_t end = (c + 1) * size / n;
      if (begin == end) continue;
      std::vector<Request> complement;
      complement.reserve(size - (end - begin));
      complement.insert(complement.end(), result.log.begin(),
                        result.log.begin() + static_cast<std::ptrdiff_t>(begin));
      complement.insert(complement.end(),
                        result.log.begin() + static_cast<std::ptrdiff_t>(end),
                        result.log.end());
      FM_ASSIGN_OR_RETURN(
          const bool diverges,
          StillDiverges(service_options, complement, initial.knobs, options,
                        result.evaluations));
      ++result.evaluations;
      if (diverges) {
        result.log = std::move(complement);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= result.log.size()) break;
      n = std::min(n * 2, result.log.size());
    }
  }

  // Re-derive the divergence the minimized log exhibits (position/what can
  // legitimately shift as requests drop out).
  FM_ASSIGN_OR_RETURN(
      const ReplayObservation reference,
      ExecuteReplay(service_options, result.log, ReferenceKnobs(options),
                    options.checkpoint_every, /*scratch_dir=*/""));
  std::string scratch;
  if (initial.knobs.crash_points > 0) {
    scratch = options.scratch_dir + "/minimize-final";
  }
  const Result<ReplayObservation> final_run =
      ExecuteReplay(service_options, result.log, initial.knobs,
                    options.checkpoint_every, scratch);
  if (!scratch.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }
  FM_RETURN_NOT_OK(final_run.status());
  result.divergence =
      CompareObservations(reference, final_run.ValueOrDie(), initial.knobs);
  return result;
}

// ---------------------------------------------------------------------------
// Fault-schedule differential
// ---------------------------------------------------------------------------

io::FaultProfile DeriveFaultProfile(uint64_t fault_seed) {
  io::FaultProfile profile;
  profile.seed = Rng::Fork(fault_seed, 1);
  Rng rng(Rng::Fork(fault_seed, 2));
  // Transient faults are common (they exercise the bounded retry loop),
  // hard faults are rare but present in roughly half the profiles each, so
  // a moderate seed sweep covers every combination of degrade/poison paths.
  profile.write_eintr = rng.Uniform(0.0, 0.25);
  profile.write_short = rng.Uniform(0.0, 0.15);
  profile.write_enospc = rng.Bernoulli(0.5) ? rng.Uniform(0.0, 0.05) : 0.0;
  profile.sync_error = rng.Bernoulli(0.5) ? rng.Uniform(0.0, 0.03) : 0.0;
  profile.open_error = rng.Bernoulli(0.3) ? rng.Uniform(0.0, 0.02) : 0.0;
  profile.rename_error = rng.Bernoulli(0.3) ? rng.Uniform(0.0, 0.02) : 0.0;
  profile.write_error = rng.Bernoulli(0.25) ? rng.Uniform(0.0, 0.01) : 0.0;
  // read_error and truncate_error stay 0: recovery must be able to re-read
  // the WAL, and the rejected-batch rollback (truncate to the committed
  // prefix) must stay reliable or live == recovered is not checkable.
  profile.enospc_window_ops = 8 + rng.UniformInt(32);
  return profile;
}

namespace {

// Schedule stream tag: chunk sizes and control-action rolls come from
// Rng::Fork(fault_seed, this), independent of the env's per-op streams.
constexpr uint64_t kFaultScheduleTag = 0xC0117801;

void AppendControl(std::string* control, char tag, const Status& status) {
  control->push_back(tag);
  io::AppendU8(control, static_cast<uint8_t>(status.code()));
  io::AppendLengthPrefixed(control, status.message());
}

}  // namespace

Result<FaultRunResult> ExecuteFaultReplay(const ServiceOptions& options,
                                          const std::vector<Request>& log,
                                          size_t threads, uint64_t fault_seed,
                                          const std::string& scratch_dir) {
  if (scratch_dir.empty()) {
    return Status::InvalidArgument(
        "fault injection needs a scratch_dir for WAL/snapshot files");
  }

  exec::ThreadPool pool(threads);
  ServiceOptions run_options = options;
  run_options.pool = &pool;

  io::FaultInjectingEnv env(io::Env::Default(),
                            DeriveFaultProfile(fault_seed));

  DurabilityOptions durability;
  durability.wal.path = scratch_dir + "/faults.fmwal";
  // kAlways: every commit fsyncs, so the fault schedule is batch-aligned
  // and wall-clock free (kBatch's sync window reads the monotonic clock,
  // which would make the env's op-ordinal stream nondeterministic).
  durability.wal.sync = WalSyncMode::kAlways;
  durability.wal.env = &env;
  durability.snapshot_dir = scratch_dir + "/snapshots";
  durability.snapshot_keep = 2;

  FM_RETURN_NOT_OK(io::CreateDirectories(scratch_dir));
  FM_RETURN_NOT_OK(io::RemoveFileIfExists(durability.wal.path));
  std::error_code ec;
  std::filesystem::remove_all(durability.snapshot_dir, ec);

  FM_ASSIGN_OR_RETURN(std::unique_ptr<Service> service,
                      Service::Create(run_options));
  // Setup runs fault-free (the env is still disarmed): the schedule should
  // exercise the serving window, not WAL creation.
  FM_RETURN_NOT_OK(service->EnableDurability(durability));

  FaultRunResult result;
  result.responses.resize(log.size());

  Rng schedule(Rng::Fork(fault_seed, kFaultScheduleTag));
  env.set_armed(true);
  size_t index = 0;
  while (index < log.size()) {
    const size_t chunk =
        std::min(log.size() - index,
                 1 + static_cast<size_t>(schedule.UniformInt(7)));
    const auto begin = log.begin() + static_cast<std::ptrdiff_t>(index);
    const std::vector<Request> batch(
        begin, begin + static_cast<std::ptrdiff_t>(chunk));
    const std::vector<Response> responses = service->ExecuteLog(batch);
    if (responses.size() != batch.size()) {
      return Status::Internal("fault replay produced " +
                              std::to_string(responses.size()) +
                              " responses for a batch of " +
                              std::to_string(batch.size()));
    }
    for (size_t j = 0; j < responses.size(); ++j) {
      result.responses[index + j] = EncodeResponse(responses[j]);
    }
    index += chunk;
    // Both rolls are drawn unconditionally so the schedule stream never
    // depends on the service's mode; the actions are conditional, but the
    // mode is itself a pure function of (log, fault seed).
    const double checkpoint_roll = schedule.Uniform();
    const double resume_roll = schedule.Uniform();
    if (checkpoint_roll < 0.20) {
      // Checkpoint failure is contained (the tmp is unlinked, the previous
      // snapshot stays selectable) — record the outcome, keep going.
      AppendControl(&result.control, 'C', service->Checkpoint());
    }
    if (resume_roll < 0.5 && service->serving_mode() != ServingMode::kNormal) {
      AppendControl(&result.control, 'R', service->TryResume());
    }
  }
  env.set_armed(false);

  result.live_state = CaptureState(*service);
  result.injected = env.counts();
  if (service->wal() != nullptr) {
    const io::RetryStats& stats = service->wal()->retry_stats();
    result.transient_retries = stats.transient_retries + stats.short_writes;
  }
  result.degraded_rejections = service->degraded_rejections();
  result.final_mode = static_cast<int>(service->serving_mode());

  // The durability proof: destroy the service, recover from what reached
  // the disk, and demand bitwise equality with the live state. A rejected
  // batch never mutates state and a committed batch is fsynced before it
  // is acknowledged, so live == durable at every batch boundary.
  service.reset();
  FM_ASSIGN_OR_RETURN(service, Service::Recover(run_options, durability));
  result.recovered_state = CaptureState(*service);
  result.recovered_equal = result.recovered_state == result.live_state;
  return result;
}

Result<FaultDivergence> RunFaultDifferential(const ServiceOptions& options,
                                             const std::vector<Request>& log,
                                             uint64_t fault_seed,
                                             const std::string& scratch_dir) {
  if (scratch_dir.empty()) {
    return Status::InvalidArgument("fault differential needs a scratch_dir");
  }

  FaultDivergence divergence;
  FaultRunResult reference;
  for (size_t i = 0; i < std::size(kFaultRunConfigs); ++i) {
    const FaultRunConfig& config = kFaultRunConfigs[i];
    std::string name = "threads=" + std::to_string(config.threads);
    if (!config.metrics) name += ",metrics=off";
    ServiceOptions run_options = options;
    run_options.enable_metrics = config.metrics;
    // Every run uses the SAME scratch path (runs are sequential; the WAL
    // and snapshots are recreated each run): error messages embed the WAL
    // path, so distinct per-run paths would diverge the response bytes.
    const std::string scratch = scratch_dir + "/run";
    Result<FaultRunResult> run = ExecuteFaultReplay(
        run_options, log, config.threads, fault_seed, scratch);
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
    FM_RETURN_NOT_OK(run.status());
    FaultRunResult& current = run.ValueOrDie();

    if (i == 0) {
      divergence.injected_faults = current.injected.total;
      divergence.degraded_rejections = current.degraded_rejections;
      divergence.poisoned =
          current.final_mode == static_cast<int>(ServingMode::kPoisoned);
    }
    if (!current.recovered_equal) {
      divergence.failed = true;
      divergence.what =
          "recovery: recovered state bytes differ from the live state";
      divergence.knob_name = name;
      return divergence;
    }
    if (i == 0) {
      reference = std::move(current);
      continue;
    }
    if (current.responses != reference.responses) {
      divergence.what = "responses: byte stream differs from the reference";
    } else if (current.control != reference.control) {
      divergence.what =
          "control: checkpoint/resume outcomes differ from the reference";
    } else if (current.live_state != reference.live_state) {
      divergence.what = "state: final state bytes differ from the reference";
    } else {
      continue;
    }
    divergence.failed = true;
    divergence.knob_name = name;
    return divergence;
  }
  return divergence;
}

}  // namespace fm::serve
