#ifndef FM_SERVE_SNAPSHOT_H_
#define FM_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/io_env.h"
#include "common/result.h"
#include "common/status.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"

namespace fm::serve {

/// Checkpoint files for the serving layer: each snapshot serializes the
/// compacted IncrementalObjective store, the ModelRegistry, the
/// BudgetAccountant ledger, and the service's log/compaction counters, so
/// recovery = latest valid snapshot + WAL-tail replay (docs/SERVING.md,
/// "Durability"). All doubles are stored as raw IEEE-754 bytes — a restored
/// service is bitwise-equal to the one that checkpointed, which is what
/// makes recovery provable with StoreStateBitwiseEquals.
///
/// File layout: 8-byte magic "FMSNAP01", u32 format version (3), u32
/// payload CRC-32, u64 options fingerprint, u64 log position, u64 payload
/// length, then the payload. The payload holds only state that cannot be
/// derived: the log position and compaction counter; the store's next id,
/// slot count, tuples, liveness bytes and id table; the ledger's spent ε,
/// reservation counter and charges; the registry's next version and, per
/// retained model, its algorithm, ω, ε, privacy flag, log position and
/// training size. The options fingerprint is checked before any component
/// is decoded, and it pins the store's dim and kind, the ledger's total and
/// every model's task and ω length. The live count follows from the
/// liveness bytes, the store's exact objective sum from its live tuples
/// (derived at the first train after recovery), and model versions from the
/// next version. A file of any other format version is skipped like any
/// other invalid one.
///
/// Files are written atomically (tmp + rename) and named
/// `snapshot-<020d position>.fmsnap`, so the lexicographically-largest valid
/// file is the newest; a corrupt or torn snapshot fails its CRC and
/// LoadLatestSnapshot falls back to the next-newest valid one.

/// Decoded snapshot contents (service-level counters plus the component
/// payload to RestoreFrom).
struct SnapshotContents {
  uint64_t next_position = 0;
  uint64_t compaction_count = 0;
  /// Remaining serialized bytes; decode with DecodeSnapshotComponents.
  std::string components;
};

/// Serializes the full service state into a snapshot payload.
std::string EncodeSnapshot(const IncrementalObjective& objective,
                           const BudgetAccountant& accountant,
                           const ModelRegistry& registry,
                           uint64_t next_position, uint64_t compaction_count);

/// Restores the three components (in place) from a SnapshotContents
/// components payload.
Status DecodeSnapshotComponents(const std::string& components,
                                IncrementalObjective* objective,
                                BudgetAccountant* accountant,
                                ModelRegistry* registry);

/// The snapshot filename for a log position ("snapshot-<020d>.fmsnap").
std::string SnapshotFileName(uint64_t position);

/// Atomically writes `payload` (an EncodeSnapshot result) as the snapshot
/// for `position` under `dir`, creating the directory if needed. With
/// `sync` the file and directory are fsynced (checked before the rename).
/// Failure is contained: the tmp file is unlinked, the previous newest
/// valid snapshot remains selectable, and the caller just misses one
/// checkpoint. `env` nullptr → io::Env::Default().
Status WriteSnapshotFile(const std::string& dir, uint64_t position,
                         uint64_t fingerprint, const std::string& payload,
                         bool sync, io::Env* env = nullptr);

/// Loads the newest snapshot under `dir` whose envelope and CRC validate
/// and whose fingerprint matches; invalid/torn files are skipped (a crashed
/// checkpoint must not poison recovery). kNotFound when no valid snapshot
/// exists (including when `dir` is missing — a fresh service).
Result<SnapshotContents> LoadLatestSnapshot(const std::string& dir,
                                            uint64_t fingerprint,
                                            io::Env* env = nullptr);

/// Deletes all but the `keep` newest snapshot files under `dir`, plus any
/// stale `snapshot-*.fmsnap.tmp` leftovers (a crash inside an atomic write
/// can strand one, and nothing else collects them).
Status PruneSnapshots(const std::string& dir, size_t keep,
                      io::Env* env = nullptr);

}  // namespace fm::serve

#endif  // FM_SERVE_SNAPSHOT_H_
