#ifndef FM_SERVE_INCREMENTAL_OBJECTIVE_H_
#define FM_SERVE_INCREMENTAL_OBJECTIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io_util.h"
#include "common/result.h"
#include "common/status.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "opt/quadratic_model.h"

namespace fm::exec {
class ThreadPool;
}  // namespace fm::exec

namespace fm::serve {

/// Stable external handle to an inserted tuple. Ids are assigned
/// monotonically in insert order, are never reused, and stay valid for the
/// store's lifetime — across any number of deletes and compactions. Clients
/// (and serve::Service responses) hold TupleIds, never physical slots.
using TupleId = uint64_t;

/// Online counterpart of core::ObjectiveAccumulator: a live, mutable tuple
/// store whose §4.2 / §5.3 quadratic objective is maintained incrementally
/// under INSERT / DELETE / UPDATE — the serving layer's answer to the
/// paper's central structural fact that both FM objectives are plain sums of
/// per-tuple contributions.
///
/// State model. Every inserted tuple occupies a physical slot; deletion
/// marks the slot dead and leaves a hole until the next compaction. Clients
/// address tuples by TupleId, which maps to the current slot through a
/// sorted id table (`slot_to_id_`): ids are assigned in insert order and
/// compaction preserves the relative order of survivors, so the table stays
/// strictly increasing and the id→slot lookup is a binary search — O(log n),
/// O(live) memory, no hashing.
///
/// The objective is one core::ExactObjectiveSum: an integer per coefficient,
/// so adding a tuple and later subtracting it cancels exactly, and the sum
/// of a tuple multiset does not depend on the order or grouping of its
/// adds. Mutations do not touch it; they record pending work instead:
///
///  - *pending adds*: slots whose current values are not in the sum (every
///    insert, and the new values of every update);
///  - *pending subtractions*: copies of (x, y) values whose contribution is
///    in the sum but whose tuple was since deleted or overwritten.
///
/// Insert, Delete and Update therefore cost O(log n + d), and Objective()
/// applies the pending work — in chunks of at most core::kObjectiveShardRows
/// tuples, in parallel — then rounds in O(d²). The work waits for the train
/// so that no request pays a tuple's O(d²) contribution on its own path.
/// The class invariant is
///
///   sum + Σ pending adds − Σ pending subtractions
///       = the exact sum over the live tuples (the *canonical sum*),
///
/// and every observer sees only the canonical sum: Objective() applies the
/// pending work first, SerializeTo writes no sum at all, and
/// StoreStateBitwiseEquals computes the canonical sum into scratch. Pending
/// work decides only *when* a contribution is summed, never a bit an
/// observer sees.
///
/// Consequences of the invariant:
///  - Objective() is a pure function of the live tuple multiset: bitwise
///    equal for every FM_THREADS, every insert grouping, every delete path,
///    with or without compactions, to a fresh store fed the same tuples in
///    any order, and to core::ObjectiveAccumulator::Build over
///    Materialize().
///  - An insert-then-delete round trip restores the previous state exactly.
///
/// Pending subtractions hold copies of deleted values. They are bounded: a
/// Delete or Update that fills the buffer to core::kObjectiveShardRows
/// tuples applies the subtractions at once, and Objective(), Compact() and
/// a bulk InsertBatch apply all pending work. Applying zeroes the buffer.
/// SerializeTo never writes it.
///
/// Compaction. Under insert+delete churn the slot space would otherwise grow
/// with total insert history. Compact() applies the pending work, densely
/// rewrites the store in live-slot order and releases the freed capacity,
/// restoring O(live) memory. It re-sums nothing — the sum does not depend
/// on slot positions — so the post-compaction state is bit-identical to a
/// fresh store fed the surviving tuples in order, for every pool size
/// (docs/DETERMINISM.md, "Compaction"). TupleIds are untouched: survivors
/// keep their ids, dead ids stay dead (kNotFound) forever.
///
/// Thread-compatibility: const methods may run concurrently; mutations —
/// Objective() among them — require external serialization (serve::Service
/// provides it).
class IncrementalObjective {
 public:
  /// An empty store for `dim`-dimensional tuples contributing to `kind`.
  IncrementalObjective(size_t dim, core::ObjectiveKind kind);

  size_t dim() const { return dim_; }
  core::ObjectiveKind kind() const { return kind_; }
  /// Number of live tuples.
  size_t live_size() const { return live_count_; }
  /// Physical slot count: live + holes. Equals live_size() right after a
  /// compaction; grows with inserts and is trimmed back by Compact().
  size_t slot_count() const { return ys_.size(); }
  /// Dead slots awaiting compaction.
  size_t dead_count() const { return ys_.size() - live_count_; }
  /// Tuple contributions the next Objective() will apply: pending adds
  /// plus pending subtractions.
  size_t pending_tuples() const {
    return pending_add_count_ + pending_sub_ys_.size();
  }

  /// Validates the §3 normalization contract for `kind` (finite values,
  /// ‖x‖₂ ≤ 1; y ∈ [−1, 1] for kLinear, y ∈ {0, 1} for kTruncatedLogistic)
  /// and appends the tuple as a pending add. O(d) amortized. Returns the
  /// assigned TupleId.
  Result<TupleId> Insert(const double* x, size_t dim, double y);
  Result<TupleId> Insert(const linalg::Vector& x, double y);

  /// Bulk insert of every tuple of `tuples` (validated up front; rejected
  /// atomically — either all rows pass and are inserted or none are).
  /// Returns the first assigned id; the batch occupies consecutive ids.
  /// A batch of at least core::kObjectiveShardRows rows applies all pending
  /// work on `pool` (nullptr → the global FM_THREADS pool) before it
  /// returns; a shorter one only records its rows as pending adds.
  Result<TupleId> InsertBatch(const data::RegressionDataset& tuples,
                              exec::ThreadPool* pool = nullptr);

  /// True when `id` refers to a live tuple.
  bool Contains(TupleId id) const;

  /// Marks `id`'s tuple dead and scrubs its raw values from the slot. If
  /// its contribution is already in the sum, a copy of the values becomes a
  /// pending subtraction first. O(log n + d). Fails with kNotFound when the
  /// id was never assigned or its tuple is already dead.
  Status Delete(TupleId id);

  /// Replaces `id`'s tuple in place (validating the new tuple): the old
  /// values become a pending subtraction, as in Delete, and the slot a
  /// pending add. Equivalent to Delete + re-Insert, except the id — and the
  /// slot layout — are preserved. O(log n + d).
  Status Update(TupleId id, const double* x, size_t dim, double y);

  /// Applies the pending work on `pool` (nullptr → the global FM_THREADS
  /// pool), then densely rewrites the store in live-slot order, drops the
  /// dead tail and releases freed capacity. Returns the number of slots
  /// reclaimed (0 for an already-dense store). Afterwards the store state is
  /// bit-identical to a fresh store fed Materialize()'s tuples in order, and
  /// every surviving TupleId still resolves.
  size_t Compact(exec::ThreadPool* pool = nullptr);

  /// The current objective over all live tuples: applies the pending work,
  /// one task per chunk of at most core::kObjectiveShardRows tuples on
  /// `pool` (nullptr → the global FM_THREADS pool; inline for one chunk),
  /// then rounds the exact sum. Deterministic per the class invariant.
  opt::QuadraticModel Objective(exec::ThreadPool* pool = nullptr);

  /// The live tuples, densely packed in slot (= id) order. O(n · d).
  data::RegressionDataset Materialize() const;

  /// Visits every live tuple in slot (= id) order as
  /// `fn(const double* x, double y)` — the exact sequence Materialize()
  /// packs, with zero allocation. Service::DoEvaluate scores through this
  /// view so an evaluate request never pays the O(n · d) copy.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (size_t slot = 0; slot < ys_.size(); ++slot) {
      if (state_[slot] == kDead) continue;
      fn(xs_.data() + slot * dim_, ys_[slot]);
    }
  }

  /// Number of Materialize() calls on this store — the churn soak asserts
  /// the serving path stays at zero (evaluate must use ForEachLive).
  uint64_t materialize_count() const { return materialize_count_; }

  /// Appends the store state that cannot be derived — next id, tuples,
  /// liveness and id table, doubles as raw bytes — to `out` (snapshot
  /// payload). The sum is derived, so it is not written; neither is the
  /// pending work, whose effect the sum derivation reproduces.
  void SerializeTo(std::string* out) const;

  /// Replaces this store's state with a SerializeTo payload read from
  /// `reader`, with every live slot a pending add: the sum is derived by the
  /// next Objective(). The payload carries no dim or kind (the snapshot's
  /// options fingerprint pins both to this store's) and no count the
  /// liveness bytes determine. Fails with kIoError when the payload is
  /// truncated, a liveness byte is outside {0, 1}, a live tuple violates
  /// the §3 contract, a dead slot holds a nonzero byte, or the id table is
  /// not strictly increasing with the next id above it. On failure the
  /// store is left in an unspecified state — the caller (snapshot recovery)
  /// discards it.
  Status RestoreFrom(io::ByteReader& reader);

  /// From-scratch reference rebuild: a fresh IncrementalObjective holding
  /// the same slots (including holes) and ids, its sum accumulated from the
  /// raw live tuples on `pool`, with no pending work. By the class
  /// invariant its state — and therefore Objective() — is bit-identical to
  /// this one; tests and examples use it to verify incremental maintenance
  /// against a full recompute.
  IncrementalObjective RebuildFromScratch(exec::ThreadPool* pool = nullptr)
      const;

  /// Bitwise comparison of the tuple store and accumulator state: raw
  /// tuples and liveness compared by their bytes (so −0.0 ≠ +0.0 and NaNs
  /// compare by payload), and the canonical sums (each computed into
  /// scratch when work is pending). TupleId assignment is deliberately
  /// excluded — ids encode insert history, which a fresh store fed the same
  /// tuples does not share. This is the observable form of the compaction
  /// contract: after Compact(), StoreStateBitwiseEquals(fresh store fed
  /// Materialize()) holds.
  bool StoreStateBitwiseEquals(const IncrementalObjective& other) const;

 private:
  // Checks the dimensionality, then data::CheckNormalizationContract for
  // kind_'s task.
  Status ValidateTuple(const double* x, size_t dim, double y) const;

  // Binary-searches slot_to_id_ (strictly increasing) for `id`, within the
  // window the id's distance from the first and last ids bounds; fails
  // with kNotFound when the id was never assigned, was compacted away, or
  // its slot is dead.
  Result<size_t> FindLiveSlot(TupleId id) const;

  // Appends storage for one tuple as a pending add and assigns the next
  // TupleId. Returns the new physical slot.
  size_t AppendTuple(const double* x, double y);

  // Marks live slot `slot` a pending add, unless it already is one.
  void MarkPendingAdd(size_t slot);

  // The liveness bytes (1 live, 0 dead) of the slots, as snapshots hold
  // them.
  std::vector<uint8_t> Liveness() const;

  // Copies live slot `slot`'s values, which are in the sum, into the
  // pending subtractions, before they are scrubbed or overwritten.
  void RetireSummedValues(size_t slot);

  // The pending work, cut into chunks of at most kObjectiveShardRows
  // entries: chunks of the appended tail, then of updated_slots_ (slots
  // deleted while pending are skipped in both), then chunks of the
  // subtraction buffer.
  size_t PendingAddChunks() const;
  size_t PendingSubChunks() const;
  // Adds pending-add chunk `chunk` to *sum, or subtracts pending-
  // subtraction chunk `chunk` from it. Neither changes the store.
  void AddPendingAddChunk(size_t chunk, core::ExactObjectiveSum* sum) const;
  void SubtractPendingChunk(size_t chunk, core::ExactObjectiveSum* sum) const;

  // Applies all pending work to sum_ and clears it, zeroing the
  // subtraction buffer.
  void ApplyPending(exec::ThreadPool* pool);

  // Applies only the pending subtractions, serially, and zeroes them.
  void ApplyPendingSubtractions();

  // Zeroes and empties the subtraction buffer (keeping its capacity).
  void ClearPendingSubtractions();

  // sum_ plus the pending work, computed serially into a copy.
  core::ExactObjectiveSum CanonicalSum() const;

  size_t dim_;
  core::ObjectiveKind kind_;
  std::vector<double> xs_;     // slot-major features, dim_ per slot
  std::vector<double> ys_;     // slot labels
  // Per-slot state: dead, or live with its values either in sum_ or a
  // pending add. The pending flag shares the liveness byte, so a delete
  // reads one byte for both.
  enum SlotState : uint8_t { kDead = 0, kSummed = 1, kPendingAdd = 2 };
  std::vector<uint8_t> state_;
  size_t live_count_ = 0;
  // slot → TupleId. Strictly increasing (ids are assigned monotonically and
  // compaction preserves survivor order), so id → slot is a binary search.
  std::vector<TupleId> slot_to_id_;
  TupleId next_id_ = 0;  // never decremented — ids outlive compactions
  // The exact sum of every contribution applied so far (see the class
  // invariant).
  core::ExactObjectiveSum sum_;
  // Pending adds. Every slot at or after pending_from_ was appended since
  // the last apply, so it is a pending add or dead; an earlier slot an
  // update made a pending add is listed in updated_slots_ (and skipped if
  // later deleted). pending_add_count_ counts the kPendingAdd slots.
  size_t pending_from_ = 0;
  std::vector<size_t> updated_slots_;
  size_t pending_add_count_ = 0;
  // Pending subtractions: retired values, dim_ features and one label each.
  std::vector<double> pending_sub_xs_;
  std::vector<double> pending_sub_ys_;
  // Materialize() call counter (diagnostic; see materialize_count()).
  // `mutable` because Materialize is const; reads/writes are serialized by
  // the same external synchronization the mutation API requires.
  mutable uint64_t materialize_count_ = 0;
};

}  // namespace fm::serve

#endif  // FM_SERVE_INCREMENTAL_OBJECTIVE_H_
