#ifndef FM_COMMON_IO_ENV_H_
#define FM_COMMON_IO_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fm::io {

/// Injectable filesystem seam for the durability layer (docs/FAULTS.md).
///
/// Every open/read/write/fsync/rename/truncate the WAL and snapshot code
/// performs goes through an `Env`, so tests and the `fuzz_determinism
/// --faults` harness can substitute a `FaultInjectingEnv`
/// (testing/fault_env.h) that deterministically injects ENOSPC, EIO, EINTR,
/// short writes, and failed fsyncs. `Env::Default()` is a thin POSIX
/// passthrough with the exact syscall behavior the layer used before the
/// seam existed — the no-fault path is bit-identical.
///
/// `File::Write` and `File::Read` intentionally mirror write(2)/read(2):
/// they may transfer fewer bytes than asked (short write/read) and fail
/// with a transient `kUnavailable` on EINTR. Callers that need all-or-error
/// semantics use `FullWrite`/`FullRead` below, which add the bounded
/// deterministic retry loop.

/// An open file handle. Close() (or destruction) releases the descriptor;
/// destruction without Close() closes silently, dropping any error.
class File {
 public:
  virtual ~File() = default;

  /// Reads up to `size` bytes into `out`; returns the byte count (0 at EOF).
  /// May read short; EINTR surfaces as kUnavailable.
  virtual Result<size_t> Read(void* out, size_t size) = 0;

  /// Writes up to `size` bytes from `data`; returns the byte count actually
  /// written. May write short (e.g. a filling volume); EINTR surfaces as
  /// kUnavailable, ENOSPC/EDQUOT as kResourceExhausted.
  virtual Result<size_t> Write(const void* data, size_t size) = 0;

  /// fsync(2). A failure here means the kernel may already have DROPPED the
  /// dirty pages (fsyncgate) — callers must not retry the sync and must not
  /// acknowledge the data; see Wal poisoning in docs/FAULTS.md.
  virtual Status Sync() = 0;

  /// ftruncate(2) to `size` bytes.
  virtual Status Truncate(uint64_t size) = 0;

  /// close(2). Safe to call once; reports the close error if any.
  virtual Status Close() = 0;
};

enum class OpenMode {
  kRead,           ///< O_RDONLY; kNotFound if the file does not exist.
  kTruncateWrite,  ///< O_WRONLY | O_CREAT | O_TRUNC, mode 0644.
  kAppend,         ///< O_WRONLY | O_CREAT | O_APPEND, mode 0644.
};

/// The filesystem operations the durability layer needs. Directory-level
/// helpers (CreateDirectories, ListDirectory, RemoveFileIfExists, FileSize)
/// are part of the seam so fault injectors see every touch, but injectors
/// keep cleanup/introspection reliable — see FaultInjectingEnv.
class Env {
 public:
  virtual ~Env() = default;

  /// The process-wide POSIX environment.
  static Env& Default();

  virtual Result<std::unique_ptr<File>> Open(const std::string& path,
                                             OpenMode mode) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  /// fsync(2) on the directory itself (makes a rename durable).
  virtual Status SyncDirectory(const std::string& path) = 0;
  virtual Status CreateDirectories(const std::string& path) = 0;
  /// The plain-file entries of `path` (names, not full paths), sorted.
  virtual Result<std::vector<std::string>> ListDirectory(
      const std::string& path) = 0;
  virtual Status RemoveFileIfExists(const std::string& path) = 0;
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
};

/// Maps an errno to the typed status the retry/degradation machinery keys
/// on: EINTR -> kUnavailable (transient, retry), ENOSPC/EDQUOT ->
/// kResourceExhausted (degrade, resumable), ENOENT -> kNotFound, anything
/// else -> kIoError. The message is "<what> <path>: <strerror>".
Status ErrnoStatus(const std::string& what, const std::string& path,
                   int error_number);

/// True for faults a bounded retry may clear (kUnavailable, i.e. EINTR).
inline bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

/// Counters for the transient-fault retry loops; surfaced by Wal and the
/// service's fm_wal_* gauges so fault handling on the happy path is
/// visibly zero.
struct RetryStats {
  uint64_t transient_retries = 0;  ///< EINTR-class retries that made no progress.
  uint64_t short_writes = 0;       ///< writes/reads that transferred short.
};

/// Consecutive no-progress attempts FullWrite/FullRead tolerate before
/// giving up with the last error (or kIoError for a wedged short-write).
/// Any forward progress resets the count, so a slowly-draining buffer
/// cannot starve the loop — only a genuinely stuck descriptor trips it.
inline constexpr int kMaxTransientRetries = 64;

/// Writes all of `data` or fails, retrying EINTR and continuing short
/// writes with the bounded deterministic policy above.
Status FullWrite(File& file, const void* data, size_t size,
                 RetryStats* stats = nullptr);

/// Appends the file's entire contents to `*out`, EINTR-safe.
Status FullRead(File& file, std::string* out, RetryStats* stats = nullptr);

/// Env-routed whole-file read: kNotFound when missing, typed errors
/// otherwise.
Result<std::string> ReadFileToString(Env& env, const std::string& path);

/// Env-routed atomic file write: write `<path>.tmp`, optionally fsync
/// (checked BEFORE the rename — an unsynced rename could publish a file
/// whose bytes never reached the platter), rename over the target, fsync
/// the directory. On ANY failure the tmp file is unlinked before
/// returning, so an error never leaks a `*.tmp` the snapshot pruner would
/// have to collect.
Status WriteFileAtomic(Env& env, const std::string& path,
                       const std::string& contents, bool sync,
                       RetryStats* stats = nullptr);

}  // namespace fm::io

#endif  // FM_COMMON_IO_ENV_H_
