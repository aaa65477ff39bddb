#ifndef FM_TESTING_FAULT_ENV_H_
#define FM_TESTING_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "common/thread_annotations.h"

namespace fm::io {

/// Per-operation fault probabilities for FaultInjectingEnv. All decisions
/// are drawn from Rng::Fork(seed, op_ordinal) — a pure function of (seed,
/// how many filesystem operations happened before), never the wall clock —
/// so a fault schedule replays bit-identically whenever the IO sequence
/// does (the `fuzz_determinism --faults` contract, docs/FAULTS.md).
struct FaultProfile {
  uint64_t seed = 0;

  // Write faults (File::Write).
  double write_error = 0.0;   ///< EIO: unrecoverable, poisons the WAL.
  double write_enospc = 0.0;  ///< ENOSPC: opens an out-of-space window.
  double write_eintr = 0.0;   ///< EINTR: transient, retried.
  double write_short = 0.0;   ///< short write (half the bytes), retried.

  double sync_error = 0.0;    ///< fsync fails (File::Sync, SyncDirectory).
  double open_error = 0.0;    ///< Env::Open fails with EIO.
  double read_error = 0.0;    ///< File::Read fails with EIO.
  double rename_error = 0.0;  ///< Env::RenameFile fails with EIO.
  double truncate_error = 0.0;  ///< File::Truncate / Env::TruncateFile EIO.

  /// After an injected ENOSPC, every write for this many further env
  /// operations keeps failing ENOSPC ("the volume is full"); then space
  /// returns — which is what gives Service::TryResume() something real to
  /// probe.
  uint64_t enospc_window_ops = 24;

  /// Cap on consecutively injected transient faults (EINTR/short) so the
  /// bounded retry loop (kMaxTransientRetries) always eventually wins.
  int max_consecutive_transients = 4;
};

/// Counters proving faults actually fired (harness coverage reporting).
struct FaultCounts {
  uint64_t ops = 0;    ///< faultable operations seen while armed or not
  uint64_t total = 0;  ///< faults injected, all kinds
  uint64_t write_error = 0;
  uint64_t write_enospc = 0;
  uint64_t write_eintr = 0;
  uint64_t write_short = 0;
  uint64_t sync_error = 0;
  uint64_t open_error = 0;
  uint64_t read_error = 0;
  uint64_t rename_error = 0;
  uint64_t truncate_error = 0;
};

/// An Env decorator that deterministically injects storage faults into the
/// operations it forwards to `base`.
///
/// Scope of injection — and what is deliberately left reliable:
///  - Open/Read/Write/Sync/Truncate/Rename/SyncDirectory can fault.
///  - Close never faults (POSIX close releases the descriptor regardless).
///  - RemoveFileIfExists / CreateDirectories / ListDirectory / FileSize
///    never fault: they are the cleanup and introspection primitives the
///    containment guarantees are built on (e.g. WriteFileAtomic's
///    unlink-tmp-on-error), and a harness that could break its own janitor
///    would prove nothing.
///
/// `set_armed(false)` passes everything through untouched (op ordinals
/// still advance) — used during setup and recovery so a fault schedule
/// only exercises the serving window.
class FaultInjectingEnv final : public Env {
 public:
  FaultInjectingEnv(Env& base, const FaultProfile& profile);

  void set_armed(bool armed);
  bool armed() const;
  FaultCounts counts() const;

  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     OpenMode mode) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDirectory(const std::string& path) override;
  Status CreateDirectories(const std::string& path) override;
  Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override;
  Status RemoveFileIfExists(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Result<uint64_t> FileSize(const std::string& path) override;

 private:
  friend class FaultInjectingFile;

  enum class WriteFault { kNone, kError, kEnospc, kEintr, kShort };

  // Each Decide* consumes one op ordinal and rolls the profile's dice for
  // that operation kind. Thread-safe (one mutex; the WAL serializes its own
  // IO anyway, but snapshot writes may interleave in other callers).
  WriteFault DecideWrite();
  bool DecideSync();
  bool DecideOpen();
  bool DecideRead();
  bool DecideRename();
  bool DecideTruncate();

  // Rolls a Bernoulli(p) for op ordinal `n`; no fault while disarmed.
  bool RollLocked(double p, uint64_t n) FM_REQUIRES(mutex_);

  Env& base_;
  const FaultProfile profile_;
  mutable Mutex mutex_;
  bool armed_ FM_GUARDED_BY(mutex_) = false;
  FaultCounts counts_ FM_GUARDED_BY(mutex_);
  /// Writes before this op ordinal fail ENOSPC (0 = volume has space).
  uint64_t space_returns_at_op_ FM_GUARDED_BY(mutex_) = 0;
  int consecutive_transients_ FM_GUARDED_BY(mutex_) = 0;
};

}  // namespace fm::io

#endif  // FM_TESTING_FAULT_ENV_H_
