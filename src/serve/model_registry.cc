#include "serve/model_registry.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace fm::serve {

ModelRegistry::ModelRegistry(size_t max_history)
    : max_history_(std::max<size_t>(1, max_history)) {}

uint64_t ModelRegistry::Publish(ModelSnapshot snapshot) {
  MutexLock lock(mutex_);
  snapshot.version = next_version_++;
  const uint64_t version = snapshot.version;
  history_.push_back(
      std::make_shared<const ModelSnapshot>(std::move(snapshot)));
  while (history_.size() > max_history_) history_.pop_front();
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::Latest() const {
  MutexLock lock(mutex_);
  return history_.empty() ? nullptr : history_.back();
}

Result<std::shared_ptr<const ModelSnapshot>> ModelRegistry::Get(
    uint64_t version) const {
  MutexLock lock(mutex_);
  for (const auto& snapshot : history_) {
    if (snapshot->version == version) return snapshot;
  }
  return Status::NotFound("model version " + std::to_string(version) +
                          " not found (never published or evicted)");
}

uint64_t ModelRegistry::latest_version() const {
  MutexLock lock(mutex_);
  return next_version_ - 1;
}

size_t ModelRegistry::size() const {
  MutexLock lock(mutex_);
  return history_.size();
}

void ModelRegistry::SerializeTo(std::string* out) const {
  MutexLock lock(mutex_);
  io::AppendU64(out, next_version_);
  io::AppendU64(out, history_.size());
  for (const auto& snapshot : history_) {
    io::AppendLengthPrefixed(out, snapshot->algorithm);
    io::AppendDoubleArray(out, snapshot->omega.raw(),
                          snapshot->omega.size());
    io::AppendDouble(out, snapshot->epsilon_spent);
    io::AppendU8(out, snapshot->is_private ? 1 : 0);
    io::AppendU64(out, snapshot->log_position);
    io::AppendU64(out, snapshot->trained_on);
  }
}

Status ModelRegistry::RestoreFrom(io::ByteReader& reader, size_t dim,
                                  data::TaskKind task) {
  MutexLock lock(mutex_);
  uint64_t next_version = 0;
  uint64_t count = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&next_version));
  FM_RETURN_NOT_OK(reader.ReadU64(&count));
  // Publish assigns next_version_++ and eviction pops only the oldest, so
  // the retained versions are the `count` ones just below next_version.
  if (next_version == 0 || count > next_version - 1) {
    return Status::IoError("snapshot registry next version " +
                           std::to_string(next_version) + " cannot follow " +
                           std::to_string(count) + " retained models");
  }
  std::deque<std::shared_ptr<const ModelSnapshot>> history;
  for (uint64_t i = 0; i < count; ++i) {
    ModelSnapshot snapshot;
    snapshot.version = next_version - count + i;
    snapshot.task = task;
    uint8_t is_private = 0;
    FM_RETURN_NOT_OK(reader.ReadLengthPrefixed(&snapshot.algorithm));
    std::vector<double> omega;
    FM_RETURN_NOT_OK(reader.ReadDoubleArray(&omega, dim));
    snapshot.omega = linalg::Vector(std::move(omega));
    FM_RETURN_NOT_OK(reader.ReadDouble(&snapshot.epsilon_spent));
    FM_RETURN_NOT_OK(reader.ReadU8(&is_private));
    if (is_private > 1) {
      return Status::IoError("snapshot is_private byte is neither 0 nor 1");
    }
    snapshot.is_private = is_private == 1;
    FM_RETURN_NOT_OK(reader.ReadU64(&snapshot.log_position));
    FM_RETURN_NOT_OK(reader.ReadU64(&snapshot.trained_on));
    history.push_back(
        std::make_shared<const ModelSnapshot>(std::move(snapshot)));
  }
  next_version_ = next_version;
  history_ = std::move(history);
  while (history_.size() > max_history_) history_.pop_front();
  return Status::OK();
}

}  // namespace fm::serve
