#ifndef FM_SERVE_WAL_H_
#define FM_SERVE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "common/io_util.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/service.h"

namespace fm::serve {

/// Durability policy for WAL commits.
enum class WalSyncMode {
  /// Never fsync. Records still reach the OS through write(2) on every
  /// commit, so a process crash loses nothing; power loss can lose the
  /// unsynced tail. The mode tests and CI use — recovery must cope with an
  /// arbitrary lost suffix either way (torn-tail truncation).
  kNone,
  /// Group commit: fsync when the batch window elapses or the record
  /// budget fills, whichever first. Bounds lost work by the window while
  /// amortizing fsync cost over the batch.
  kBatch,
  /// fsync on every commit. Maximum durability, one fsync per ExecuteLog.
  kAlways,
};

const char* WalSyncModeToString(WalSyncMode mode);

struct WalOptions {
  std::string path;
  WalSyncMode sync = WalSyncMode::kBatch;
  /// kBatch: maximum seconds between fsyncs while commits are flowing.
  double batch_window_seconds = 0.002;
  /// kBatch: fsync after at most this many records, regardless of window.
  size_t batch_max_records = 256;
  /// Filesystem seam; nullptr → io::Env::Default(). Runtime wiring only
  /// (fault injection in tests/fuzzing) — not part of the options
  /// fingerprint, so a log written through one env recovers through any.
  io::Env* env = nullptr;
  /// Time seam for the kBatch sync window and fsync-latency telemetry;
  /// nullptr → obs::MonotonicClock::Default(). Runtime wiring only, like
  /// `env` — never fingerprinted, and wall time never feeds record bytes.
  const obs::Clock* clock = nullptr;
};

/// Observation-only metric sinks a Wal owner may attach (Service wires
/// these into its registry). Every pointer is optional; the pointed-to
/// metrics must outlive the Wal. Attaching telemetry must not change any
/// byte the Wal writes — that is the determinism contract's metrics axis.
struct WalTelemetry {
  obs::Histogram* commit_batch_records = nullptr;  ///< records per commit
  obs::Histogram* fsync_nanos = nullptr;           ///< per-fsync latency
  obs::Counter* syncs = nullptr;                   ///< fsyncs issued
  obs::Counter* commit_failures = nullptr;         ///< failed commit batches
};

/// Everything Service::EnableDurability / Service::Recover need: where the
/// WAL lives, where checkpoints go, and how often they are taken.
struct DurabilityOptions {
  WalOptions wal;
  /// Checkpoint directory; empty → WAL-only durability (recovery then
  /// replays the whole log, so a service with Bootstrap data — which never
  /// flows through the log — requires a snapshot dir).
  std::string snapshot_dir;
  /// Auto-checkpoint every this many log positions (0 = only explicit
  /// Checkpoint() calls). Deterministic: a pure function of the log
  /// prefix, so it cannot perturb the byte-determinism contract.
  uint64_t snapshot_every = 0;
  /// Snapshot files retained after each checkpoint (older pruned).
  size_t snapshot_keep = 4;
};

/// Fingerprint of the ServiceOptions fields that define the durable
/// state's meaning (dim, task, post-processing, ε total, seed, compaction
/// policy). Stamped into WAL and snapshot headers so recovery refuses
/// state written under different options instead of silently diverging.
uint64_t OptionsFingerprint(const ServiceOptions& options);

/// One recovered log entry: the request and the absolute log position it was
/// appended at.
struct WalRecord {
  uint64_t position = 0;
  Request request;
};

/// Result of scanning a WAL file.
struct WalReplay {
  std::vector<WalRecord> records;  ///< The valid prefix, in file order.
  uint64_t valid_bytes = 0;        ///< File offset where the prefix ends.
  bool torn_tail = false;  ///< Bytes past valid_bytes failed length/CRC.
};

/// Append-only binary write-ahead log of serve::Request records.
///
/// File layout: a 24-byte header (8-byte magic "FMWAL001", format version,
/// an options fingerprint binding the log to the ServiceOptions that wrote
/// it) followed by records
///
///   [u32 payload_len][u32 crc][u64 position][payload]
///
/// where `crc` is the CRC-32 of the position bytes plus payload, `position`
/// is the request's absolute log position, and `payload` is the encoded
/// Request. Appends buffer in memory; Commit() write(2)s the buffered batch
/// and fsyncs per WalSyncMode — one ExecuteLog call is one commit batch, so
/// group commit falls out of the engine's existing batching. A crash can
/// only lose a suffix of records (plus at most one torn record at the cut);
/// Open() and ReadAll() stop at the first record whose length or CRC does
/// not check out, and Open() truncates the file back to that valid prefix.
///
/// Not thread-safe; serve::Service serializes access under its execution
/// mutex.
class Wal {
 public:
  /// Opens `options.path` for appending, creating it (with a fresh header)
  /// when absent. An existing file must carry a matching fingerprint; its
  /// torn tail, if any, is truncated so the file ends on a record boundary.
  static Result<std::unique_ptr<Wal>> Open(const WalOptions& options,
                                           uint64_t fingerprint);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Scans the file and returns every record of the valid prefix. Tolerant:
  /// a torn/corrupt tail sets `torn_tail` instead of failing, because a
  /// crashed writer legitimately leaves one. Fails only when the file is
  /// missing, the header is unreadable, or the fingerprint mismatches.
  /// `env` nullptr → io::Env::Default().
  static Result<WalReplay> ReadAll(const std::string& path,
                                   uint64_t fingerprint,
                                   io::Env* env = nullptr);

  /// Buffers one record for the next Commit.
  void Append(uint64_t position, const Request& request);

  /// Writes all buffered records and applies the sync policy. Empty buffer
  /// is a no-op. On failure the batch is dropped and the file rolled back
  /// to the last record boundary — the caller fails the requests the batch
  /// covered, so they must not resurface on replay. Failure taxonomy
  /// (docs/FAULTS.md):
  ///  - EINTR / short writes are retried inside the commit with the bounded
  ///    deterministic loop (io::FullWrite); they never surface to callers.
  ///  - ENOSPC with a clean rollback returns kResourceExhausted — the WAL
  ///    stays healthy and ProbeWritable() can re-admit writes later.
  ///  - Any other write error, a failed rollback truncate (a partial record
  ///    may sit mid-log), or a failed fsync POISONS the WAL: the batch is
  ///    rejected and every later Commit/Sync/ProbeWritable short-circuits
  ///    with kIoError without touching the file. A failed fsync is never
  ///    retried — the kernel may already have dropped the dirty pages, so a
  ///    "successful" second fsync would acknowledge data that never hit the
  ///    platter. Only a restart + Service::Recover (which re-reads what is
  ///    actually on disk) exits the poisoned state.
  Status Commit();

  /// Forces an fsync regardless of mode (used before checkpoints). A
  /// failure poisons the WAL (see Commit).
  Status Sync();

  /// True once a non-recoverable write/fsync failure rejected a batch; the
  /// WAL refuses all further writes.
  bool poisoned() const { return poisoned_; }

  /// Degraded-mode probe (Service::TryResume): appends a small zero probe
  /// and truncates it back off. Success means the volume accepts bytes
  /// again; failure leaves the file exactly as it was (the zero probe can
  /// only ever read as a torn tail). A failed truncate-back poisons the
  /// WAL, since the probe bytes would sit at the append point.
  Status ProbeWritable();

  /// Transient-fault retry counters accumulated by commits and probes;
  /// all-zero on a healthy volume (perfbench's durable_ingest checks them
  /// in every segment; the service exports them as fm_wal_* gauges).
  const io::RetryStats& retry_stats() const { return retry_stats_; }

  /// Attaches metric sinks (see WalTelemetry). Not thread-safe; call
  /// before the Wal is shared, alongside Open.
  void set_telemetry(const WalTelemetry& telemetry) { telemetry_ = telemetry; }

  const WalOptions& options() const { return options_; }
  uint64_t appended_records() const { return appended_records_; }
  uint64_t commit_batches() const { return commit_batches_; }
  uint64_t sync_count() const { return sync_count_; }
  /// Durable file size after the last successful Commit.
  uint64_t file_bytes() const { return file_bytes_; }

  /// Encoded bytes of one record (testing/bench; Append uses it).
  static std::string EncodeRecord(uint64_t position, const Request& request);

  /// Decodes one EncodeRecord-framed record from `reader`, advancing it past
  /// the record. Strict: a short header/payload, CRC mismatch, or malformed
  /// payload fails with kIoError and leaves `reader` unspecified — callers
  /// that must tolerate a torn tail (ReadAll) copy the reader first. Shared
  /// by WAL recovery and the fuzz harness's repro-artifact loader
  /// (testing/replay.h), so both speak the identical record codec.
  static Status DecodeRecord(io::ByteReader& reader, WalRecord* out);

 private:
  Wal(const WalOptions& options, std::unique_ptr<io::File> file,
      uint64_t file_bytes);

  Status PoisonedStatus() const;

  WalOptions options_;
  std::unique_ptr<io::File> file_;
  uint64_t file_bytes_;
  std::string pending_;          // encoded, not yet written
  size_t pending_records_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t commit_batches_ = 0;
  uint64_t sync_count_ = 0;
  size_t records_since_sync_ = 0;
  const obs::Clock* clock_;        // resolved from options_.clock
  int64_t last_sync_nanos_ = 0;    // on clock_'s timeline
  bool poisoned_ = false;
  io::RetryStats retry_stats_;
  WalTelemetry telemetry_;
};

}  // namespace fm::serve

#endif  // FM_SERVE_WAL_H_
