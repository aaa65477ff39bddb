#ifndef FM_SERVE_MODEL_REGISTRY_H_
#define FM_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/io_util.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "data/normalizer.h"
#include "linalg/vector.h"

namespace fm::serve {

/// One published, immutable model version.
struct ModelSnapshot {
  /// Monotonic version id assigned by the registry (1-based).
  uint64_t version = 0;
  /// Trainer display name ("FM", "Truncated", "NoPrivacy").
  std::string algorithm;
  data::TaskKind task = data::TaskKind::kLinear;
  /// The released parameter vector ω.
  linalg::Vector omega;
  /// ε committed against the budget for this model (0 for non-private).
  double epsilon_spent = 0.0;
  bool is_private = false;
  /// The request-log position whose ingest effects this model reflects
  /// (training saw every mutation at position < log_position).
  uint64_t log_position = 0;
  /// Live tuples at training time.
  size_t trained_on = 0;
};

/// Versioned store of published models with snapshot-isolation reads.
///
/// Publish appends an immutable ModelSnapshot under a new version; readers
/// take `shared_ptr<const ModelSnapshot>` references, so a prediction batch
/// keeps serving a consistent model even while newer versions publish and
/// old versions age out of the bounded history — the snapshot lives until
/// its last reader drops it. All methods are thread-safe.
class ModelRegistry {
 public:
  /// Keeps at most `max_history` versions (≥ 1; older ones are evicted from
  /// the registry but stay alive for readers still holding them).
  explicit ModelRegistry(size_t max_history = 64);

  /// Assigns the next version to `snapshot`, publishes it, and returns the
  /// version id.
  uint64_t Publish(ModelSnapshot snapshot);

  /// The most recently published model, or nullptr when none exists yet.
  std::shared_ptr<const ModelSnapshot> Latest() const;

  /// A specific version; kNotFound when it never existed or was evicted.
  Result<std::shared_ptr<const ModelSnapshot>> Get(uint64_t version) const;

  /// The latest assigned version id (0 when nothing was published).
  uint64_t latest_version() const;
  /// Versions currently retained.
  size_t size() const;

  /// Appends every retained version — coefficients as raw double bytes —
  /// plus the version counter to `out` (snapshot payload). A model's
  /// version, task and ω length are not written: they are derived on
  /// restore.
  void SerializeTo(std::string* out) const;

  /// Replaces this registry's contents with a SerializeTo payload read from
  /// `reader`. Every restored model gets the service's `task` and a
  /// `dim`-long ω; the i-th of n retained models gets version
  /// next_version − n + i, as Publish assigned it. Restored ω vectors are
  /// bit-exact, so predictions served after recovery match the
  /// uninterrupted service byte for byte. Fails with kIoError when the
  /// payload is truncated, next_version is 0, it retains more models than
  /// next_version − 1, or a model has a non-finite ω entry, an ε that is
  /// negative or not finite, or an is_private byte outside {0, 1}.
  Status RestoreFrom(io::ByteReader& reader, size_t dim, data::TaskKind task);

 private:
  mutable Mutex mutex_;
  const size_t max_history_;  // immutable after construction; no guard
  uint64_t next_version_ FM_GUARDED_BY(mutex_) = 1;
  std::deque<std::shared_ptr<const ModelSnapshot>> history_
      FM_GUARDED_BY(mutex_);
};

}  // namespace fm::serve

#endif  // FM_SERVE_MODEL_REGISTRY_H_
