#include "testing/fault_env.h"

#include <cerrno>
#include <utility>

#include "common/rng.h"

namespace fm::io {

/// File decorator: forwards to the wrapped file, asking the owning env for
/// a (deterministic) fault decision first. Lifetime: the env must outlive
/// every file it opened, which the durability layer guarantees (the env is
/// owned by the test/harness that owns the service).
class FaultInjectingFile final : public File {
 public:
  FaultInjectingFile(std::unique_ptr<File> base, FaultInjectingEnv* env,
                     std::string path)
      : base_(std::move(base)), env_(env), path_(std::move(path)) {}

  Result<size_t> Read(void* out, size_t size) override {
    if (env_->DecideRead()) {
      return ErrnoStatus("read failed (injected) for", path_, EIO);
    }
    return base_->Read(out, size);
  }

  Result<size_t> Write(const void* data, size_t size) override {
    switch (env_->DecideWrite()) {
      case FaultInjectingEnv::WriteFault::kNone:
        break;
      case FaultInjectingEnv::WriteFault::kError:
        return ErrnoStatus("write failed (injected) for", path_, EIO);
      case FaultInjectingEnv::WriteFault::kEnospc:
        return ErrnoStatus("write failed (injected) for", path_, ENOSPC);
      case FaultInjectingEnv::WriteFault::kEintr:
        return ErrnoStatus("write failed (injected) for", path_, EINTR);
      case FaultInjectingEnv::WriteFault::kShort: {
        // A real short write leaves a prefix on disk; mirror that by
        // actually writing half, so retry-resumption is exercised against
        // true file state, not a simulation of it.
        const size_t half = size / 2;
        if (half == 0) break;
        return base_->Write(data, half);
      }
    }
    return base_->Write(data, size);
  }

  Status Sync() override {
    if (env_->DecideSync()) {
      return ErrnoStatus("fsync failed (injected) for", path_, EIO);
    }
    return base_->Sync();
  }

  Status Truncate(uint64_t size) override {
    if (env_->DecideTruncate()) {
      return ErrnoStatus("ftruncate failed (injected) for", path_, EIO);
    }
    return base_->Truncate(size);
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<File> base_;
  FaultInjectingEnv* env_;
  std::string path_;
};

FaultInjectingEnv::FaultInjectingEnv(Env& base, const FaultProfile& profile)
    : base_(base), profile_(profile) {}

void FaultInjectingEnv::set_armed(bool armed) {
  MutexLock lock(mutex_);
  armed_ = armed;
}

bool FaultInjectingEnv::armed() const {
  MutexLock lock(mutex_);
  return armed_;
}

FaultCounts FaultInjectingEnv::counts() const {
  MutexLock lock(mutex_);
  return counts_;
}

bool FaultInjectingEnv::RollLocked(double p, uint64_t n) {
  if (!armed_ || p <= 0.0) return false;
  Rng rng(Rng::Fork(profile_.seed, n));
  return rng.Bernoulli(p);
}

FaultInjectingEnv::WriteFault FaultInjectingEnv::DecideWrite() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  if (!armed_) return WriteFault::kNone;
  if (n < space_returns_at_op_) {
    // Inside an out-of-space window: the volume stays full no matter what
    // is written until `enospc_window_ops` operations pass.
    ++counts_.total;
    ++counts_.write_enospc;
    return WriteFault::kEnospc;
  }
  Rng rng(Rng::Fork(profile_.seed, n));
  // Fixed draw order keeps the schedule a pure function of (seed, op).
  const bool eintr = rng.Bernoulli(profile_.write_eintr);
  const bool short_write = rng.Bernoulli(profile_.write_short);
  const bool enospc = rng.Bernoulli(profile_.write_enospc);
  const bool error = rng.Bernoulli(profile_.write_error);
  if (eintr || short_write) {
    if (consecutive_transients_ < profile_.max_consecutive_transients) {
      ++consecutive_transients_;
      ++counts_.total;
      if (eintr) {
        ++counts_.write_eintr;
        return WriteFault::kEintr;
      }
      ++counts_.write_short;
      return WriteFault::kShort;
    }
    // Cap hit: let this attempt through so the bounded retry loop
    // (kMaxTransientRetries) always eventually succeeds.
  }
  consecutive_transients_ = 0;
  if (enospc) {
    space_returns_at_op_ = n + 1 + profile_.enospc_window_ops;
    ++counts_.total;
    ++counts_.write_enospc;
    return WriteFault::kEnospc;
  }
  if (error) {
    ++counts_.total;
    ++counts_.write_error;
    return WriteFault::kError;
  }
  return WriteFault::kNone;
}

bool FaultInjectingEnv::DecideSync() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  consecutive_transients_ = 0;
  if (!RollLocked(profile_.sync_error, n)) return false;
  ++counts_.total;
  ++counts_.sync_error;
  return true;
}

bool FaultInjectingEnv::DecideOpen() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  if (!RollLocked(profile_.open_error, n)) return false;
  ++counts_.total;
  ++counts_.open_error;
  return true;
}

bool FaultInjectingEnv::DecideRead() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  if (!RollLocked(profile_.read_error, n)) return false;
  ++counts_.total;
  ++counts_.read_error;
  return true;
}

bool FaultInjectingEnv::DecideRename() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  if (!RollLocked(profile_.rename_error, n)) return false;
  ++counts_.total;
  ++counts_.rename_error;
  return true;
}

bool FaultInjectingEnv::DecideTruncate() {
  MutexLock lock(mutex_);
  const uint64_t n = counts_.ops++;
  if (!RollLocked(profile_.truncate_error, n)) return false;
  ++counts_.total;
  ++counts_.truncate_error;
  return true;
}

Result<std::unique_ptr<File>> FaultInjectingEnv::Open(const std::string& path,
                                                      OpenMode mode) {
  if (DecideOpen()) {
    return ErrnoStatus("open failed (injected) for", path, EIO);
  }
  Result<std::unique_ptr<File>> base = base_.Open(path, mode);
  if (!base.ok()) return base.status();
  return std::unique_ptr<File>(
      new FaultInjectingFile(std::move(base).ValueOrDie(), this, path));
}

Status FaultInjectingEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (DecideRename()) {
    return ErrnoStatus("rename failed (injected) for", from, EIO);
  }
  return base_.RenameFile(from, to);
}

Status FaultInjectingEnv::SyncDirectory(const std::string& path) {
  if (DecideSync()) {
    return ErrnoStatus("fsync failed (injected) for", path, EIO);
  }
  return base_.SyncDirectory(path);
}

Status FaultInjectingEnv::CreateDirectories(const std::string& path) {
  return base_.CreateDirectories(path);
}

Result<std::vector<std::string>> FaultInjectingEnv::ListDirectory(
    const std::string& path) {
  return base_.ListDirectory(path);
}

Status FaultInjectingEnv::RemoveFileIfExists(const std::string& path) {
  return base_.RemoveFileIfExists(path);
}

Status FaultInjectingEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  if (DecideTruncate()) {
    return ErrnoStatus("truncate failed (injected) for", path, EIO);
  }
  return base_.TruncateFile(path, size);
}

Result<uint64_t> FaultInjectingEnv::FileSize(const std::string& path) {
  return base_.FileSize(path);
}

}  // namespace fm::io
