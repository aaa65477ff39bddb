#ifndef FM_SERVE_REPLAY_H_
#define FM_SERVE_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fault_env.h"
#include "common/result.h"
#include "common/status.h"
#include "serve/service.h"

namespace fm::serve {

/// Record/replay engine and differential fuzz harness for the serving
/// layer's byte-determinism contract (docs/DETERMINISM.md, docs/FUZZING.md).
///
/// The contract under test: for a fixed request log and fixed
/// ServiceOptions, every response and the full service state are a pure
/// function of the log — bit-identical for every FM_THREADS value, every
/// batching schedule (one big ExecuteLog, per-request calls, random
/// chunks, Enqueue/Drain), and every crash/recovery schedule
/// (Service::Recover after the WAL is truncated at an arbitrary byte). The
/// harness turns that sentence into a machine-checkable invariant over
/// arbitrary workloads:
///
///   1. GenerateWorkload: a seeded randomized mixed request log
///      (insert/delete/update/predict/train/evaluate/compact, skewed id
///      reuse, malformed requests, budget exhaustion), all randomness from
///      Rng::Fork(seed, i).
///   2. Write/ReadReproArtifact: an on-disk log format reusing the WAL
///      record codec, so any log — in particular a minimized repro — is a
///      committable artifact.
///   3. ExecuteReplay / RunDifferential: execute one log under every knob
///      combination and byte-diff the response streams and full state
///      snapshots (EncodeSnapshot bytes) at fixed checkpoint positions.
///   4. MinimizeDivergingLog: ddmin a divergent log down to a minimal
///      still-diverging repro.
///
/// Compaction timing is deliberately NOT an execution knob: when a
/// compaction runs is semantically observable (it repacks shards, so
/// Objective() — and every model trained afterwards — changes bits within
/// the 1-ulp envelope). Both compaction styles are therefore workload
/// axes: "policy" logs rely on the auto-compaction trigger (a pure function
/// of the log prefix), "forced" logs disable it and carry explicit
/// kCompact requests. Either way the schedule is part of (log, options)
/// and every execution knob must reproduce it byte for byte.

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// Shape of a generated fuzz workload. The same (options, seed) pair always
/// generates the same log and the same ServiceOptions — a fuzz failure is
/// reproducible from its seed alone, before any artifact is written.
struct WorkloadOptions {
  size_t dim = 4;
  size_t requests = 200;
  data::TaskKind task = data::TaskKind::kLinear;
  /// Total ε for the service under test. Sized so that a typical log's
  /// private trains exhaust it — the ledger's rejection path is part of
  /// the determinism contract and must replay identically.
  double total_epsilon = 4.0;
  /// false: auto-compaction policy decides when to compact ("policy").
  /// true: auto-compaction is off and the generator injects explicit
  /// kCompact requests ("forced").
  bool forced_compaction = false;
  /// Fraction of requests that are deliberately malformed: unknown or
  /// already-dead ids on kDelete/kUpdate, dimension-mismatched or
  /// contract-violating tuples, invalid ε on kTrain. They must return
  /// typed errors, mutate nothing, and replay bit-identically.
  double malformed_fraction = 0.10;
};

/// The ServiceOptions a generated workload runs under (pool left null; the
/// replayer supplies pools). Deterministic in (options, seed).
ServiceOptions WorkloadServiceOptions(const WorkloadOptions& options,
                                      uint64_t seed);

/// Generates the randomized mixed request log. Request i draws all its
/// randomness from Rng(Rng::Fork(seed, i)); the generator's id bookkeeping
/// (which ids are live/dead) is deterministic bookkeeping, not randomness.
std::vector<Request> GenerateWorkload(const WorkloadOptions& options,
                                      uint64_t seed);

// ---------------------------------------------------------------------------
// On-disk request logs (repro artifacts)
// ---------------------------------------------------------------------------

/// A self-contained recorded log: the ServiceOptions it must run under plus
/// the requests. This is what the fuzz driver writes when a log diverges
/// and what `fuzz_determinism --replay` re-runs.
struct ReproArtifact {
  ServiceOptions options;  ///< pool is always null after a read.
  std::vector<Request> log;
};

/// Writes `log` + the semantic ServiceOptions fields to `path` atomically.
/// Layout: magic "FMFUZZR1", u32 version, encoded options, u64 record
/// count, then Wal::EncodeRecord framing for every request (positions
/// 0..n-1) — the exact WAL record codec, CRC and all, so an artifact is as
/// corruption-evident as the log files the service itself writes.
Status WriteReproArtifact(const std::string& path,
                          const ServiceOptions& options,
                          const std::vector<Request>& log);

/// Reads a WriteReproArtifact file back. Unlike WAL recovery this is
/// strict: a torn or corrupt record fails the read (an artifact is a
/// committed test vector, not a crashed log).
Result<ReproArtifact> ReadReproArtifact(const std::string& path);

// ---------------------------------------------------------------------------
// Differential replay
// ---------------------------------------------------------------------------

/// How the replayer feeds the log to the service. All modes are required
/// to be response- and state-equivalent; kRandomChunks and kDrain also
/// inject empty batches (ExecuteLog({}) / empty Drain()).
enum class BatchingMode {
  /// One ExecuteLog per checkpoint interval (the reference schedule).
  kCheckpointChunks,
  /// One ExecuteLog per request.
  kSingle,
  /// Random-sized ExecuteLog chunks (schedule_seed), empty calls included.
  kRandomChunks,
  /// Enqueue random-sized runs, then Drain.
  kDrain,
};

const char* BatchingModeToString(BatchingMode mode);

/// One execution configuration of the system under test.
struct ReplayKnobs {
  size_t threads = 1;
  BatchingMode batching = BatchingMode::kCheckpointChunks;
  /// Crash/recovery points injected into the run: the service is destroyed,
  /// the WAL truncated at a uniformly random byte (the wal_test crash
  /// model), Service::Recover rebuilds it, and the client re-submits from
  /// the recovered position. Requires a scratch_dir. 0 = no durability.
  size_t crash_points = 0;
  /// Seed for the schedule randomness (chunk sizes, checkpoint calls,
  /// crash cut bytes). Schedule randomness is allowed to vary between
  /// runs precisely because the contract says it must not matter.
  uint64_t schedule_seed = 0;
  /// The telemetry axis: false runs with ServiceOptions::enable_metrics
  /// off. Telemetry is observation-only by contract, so a metrics-off run
  /// must reproduce the (metrics-on) reference byte for byte.
  bool metrics = true;

  std::string Name() const;
};

/// Everything one execution of a log observes, keyed by log position so
/// runs with different schedules (including crash/re-execution) compare
/// position by position.
struct ReplayObservation {
  /// Byte-encoded Response per log position (status code + message, id,
  /// value bits, model version, ε bits). Re-executed positions (after a
  /// crash) overwrite — the contract makes the overwrite a no-op.
  std::vector<std::string> responses;
  /// Full-state snapshot bytes (EncodeSnapshot) captured at fixed log
  /// positions: every multiple of checkpoint_every, plus the end of log.
  std::map<uint64_t, std::string> state;
};

/// Executes `log` under `knobs` and returns the observation.
/// `scratch_dir` is required when knobs.crash_points > 0 (WAL + snapshot
/// files live there; the caller owns cleanup).
Result<ReplayObservation> ExecuteReplay(const ServiceOptions& options,
                                        const std::vector<Request>& log,
                                        const ReplayKnobs& knobs,
                                        uint64_t checkpoint_every,
                                        const std::string& scratch_dir);

/// A byte divergence between two observations of the same log.
struct Divergence {
  bool diverged = false;
  /// First log position whose response bytes or state snapshot differ.
  uint64_t position = 0;
  /// "response" or "state" — which stream diverged first at `position`.
  std::string what;
  /// The non-reference knob combination that diverged.
  ReplayKnobs knobs;
  std::string knob_name;
};

/// Position-wise byte diff of two observations; the earliest difference
/// wins. Empty-response positions (never executed — cannot happen in a
/// completed run) compare equal only to each other.
Divergence CompareObservations(const ReplayObservation& reference,
                               const ReplayObservation& candidate,
                               const ReplayKnobs& candidate_knobs);

/// The knob matrix RunDifferential executes. The reference run (threads
/// 1, kCheckpointChunks, no crash) is implicit and excluded.
struct DifferentialOptions {
  std::vector<size_t> thread_counts = {1, 2, 8};
  std::vector<BatchingMode> batchings = {
      BatchingMode::kCheckpointChunks, BatchingMode::kSingle,
      BatchingMode::kRandomChunks, BatchingMode::kDrain};
  /// Crash/recover points per crash run; for every thread count one
  /// additional kRandomChunks run executes with this many injected
  /// crashes. 0 disables crash runs (then no scratch_dir is needed).
  size_t crash_points = 2;
  uint64_t checkpoint_every = 32;
  uint64_t schedule_seed = 0x5eedf00d;
  /// Scratch directory for crash runs' WAL/snapshot files. Created on
  /// demand; per-run subdirectories are removed after each run.
  std::string scratch_dir;
};

/// The non-reference knob combinations `options` describes, in a fixed
/// deterministic order (per thread count: every batching, then the crash
/// run and the metrics-off run). Exposed so the driver can report the
/// matrix it covered.
std::vector<ReplayKnobs> EnumerateKnobs(const DifferentialOptions& options);

/// Executes the reference run plus every EnumerateKnobs combination and
/// returns the first divergence found (or .diverged == false when every
/// combination reproduced the reference byte for byte).
Result<Divergence> RunDifferential(const ServiceOptions& service_options,
                                   const std::vector<Request>& log,
                                   const DifferentialOptions& options);

// ---------------------------------------------------------------------------
// Delta-debugging minimization
// ---------------------------------------------------------------------------

struct MinimizeResult {
  /// The minimized log: removing any single ddmin chunk at final
  /// granularity no longer diverges.
  std::vector<Request> log;
  /// The divergence the minimized log still exhibits.
  Divergence divergence;
  /// Predicate evaluations spent (each is one reference + one candidate
  /// replay of the shrinking log).
  size_t evaluations = 0;
};

/// Shrinks a divergent log with ddmin. The initial RunDifferential
/// identifies the diverging knob combination; minimization then tests each
/// candidate sublog against that single combination (two replays per
/// evaluation), which keeps shrinking cheap while preserving the
/// "still diverges" predicate. Fails with kFailedPrecondition when `log`
/// does not diverge in the first place.
Result<MinimizeResult> MinimizeDivergingLog(
    const ServiceOptions& service_options, const std::vector<Request>& log,
    const DifferentialOptions& options);

// ---------------------------------------------------------------------------
// Fault-schedule differential (fuzz_determinism --faults; docs/FAULTS.md)
// ---------------------------------------------------------------------------

/// The contract under fault injection extends the determinism contract:
/// with a FaultInjectingEnv between the service and the disk, every
/// response — including kResourceExhausted rejections, kDegradedReadOnly
/// rejections and poisoned-WAL kIoError rejections — plus the control
/// outcomes (Checkpoint/TryResume results) must be a pure function of
/// (log, fault seed), byte-identical across FM_THREADS. And no
/// acknowledged response may be lost: after the run the service is
/// destroyed and recovered from disk, and the recovered state must be
/// bitwise equal to the live state (a rejected batch never mutates state,
/// so live == durable at every batch boundary).

/// Derives the per-run fault profile from a fault seed. Read faults and
/// truncate faults stay at zero: recovery must be able to re-read the WAL,
/// and the WAL's rejected-batch rollback (truncate back to the committed
/// prefix) must stay reliable for the live == recovered invariant to be
/// checkable. Production rollback failure is covered separately (it
/// poisons; see wal_test).
io::FaultProfile DeriveFaultProfile(uint64_t fault_seed);

/// Everything one fault-injected execution observes.
struct FaultRunResult {
  /// Byte-encoded Response per request INDEX. Indexed by position in `log`,
  /// not by service log position: degraded/rejected requests consume no log
  /// position, so position-keying would misalign runs.
  std::vector<std::string> responses;
  /// Byte log of control actions: for each scheduled Checkpoint ('C') and
  /// TryResume ('R'), the action tag, resulting status code and message.
  /// Divergent control outcomes are a determinism break like any other.
  std::string control;
  /// EncodeSnapshot bytes of the live service at end of run.
  std::string live_state;
  /// EncodeSnapshot bytes after destroy + Service::Recover from disk.
  std::string recovered_state;
  bool recovered_equal = false;
  /// Injected-fault counters (proof of coverage, not just survival).
  io::FaultCounts injected;
  uint64_t transient_retries = 0;
  uint64_t degraded_rejections = 0;
  /// Final ServingMode as an int (ServingMode enum value).
  int final_mode = 0;
};

/// Executes `log` against a service whose WAL and snapshots go through a
/// FaultInjectingEnv seeded with DeriveFaultProfile(fault_seed). The chunk
/// schedule and control-action schedule are drawn from the fault seed only
/// (never the thread count), WAL sync mode is kAlways (so the fault
/// schedule is batch-aligned and wall-clock free), and the env is disarmed
/// during setup and recovery. The result records whether the recovered
/// state matched the live state bitwise (`recovered_equal`); the caller —
/// RunFaultDifferential — turns a mismatch into a failure.
Result<FaultRunResult> ExecuteFaultReplay(const ServiceOptions& options,
                                          const std::vector<Request>& log,
                                          size_t threads, uint64_t fault_seed,
                                          const std::string& scratch_dir);

/// Outcome of RunFaultDifferential.
struct FaultDivergence {
  bool failed = false;
  /// What went wrong: "responses", "control", "recovery", ...
  std::string what;
  /// The run configuration that failed/diverged, e.g. "threads=8".
  std::string knob_name;
  /// Coverage from the reference run.
  uint64_t injected_faults = 0;
  uint64_t degraded_rejections = 0;
  bool poisoned = false;
};

/// One RunFaultDifferential configuration.
struct FaultRunConfig {
  size_t threads;
  bool metrics;
};

/// The configurations RunFaultDifferential executes, reference first. The
/// metrics-off run re-checks the reference configuration with telemetry
/// off: even under injected faults (degraded-mode logging, failure
/// counters) the metrics switch must not change a single response or
/// state byte.
inline constexpr FaultRunConfig kFaultRunConfigs[] = {
    {1, true}, {8, true}, {1, false}};

/// Runs ExecuteFaultReplay under every kFaultRunConfigs entry with the
/// same fault seed and byte-compares each run against the first. All runs
/// must agree on responses and control bytes, and each must individually
/// satisfy recovered == live.
Result<FaultDivergence> RunFaultDifferential(const ServiceOptions& options,
                                             const std::vector<Request>& log,
                                             uint64_t fault_seed,
                                             const std::string& scratch_dir);

}  // namespace fm::serve

#endif  // FM_SERVE_REPLAY_H_
