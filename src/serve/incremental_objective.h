#ifndef FM_SERVE_INCREMENTAL_OBJECTIVE_H_
#define FM_SERVE_INCREMENTAL_OBJECTIVE_H_

#include <cstdint>
#include <utility>
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
/// per-tuple contributions. An insert is an O(d²) compensated delta; a
/// delete or update is O(log n + d²) and marks its 1024-row shard stale;
/// deriving the current objective re-sums each stale shard once, in
/// parallel, then folds in O(live shards · d²) — so a continuously-updated
/// private model never pays the O(n · d²) full re-summation that an offline
/// rebuild would, and the deletes between two trains cost one re-sum per
/// touched shard, not one per delete.
///
/// State model. Every inserted tuple occupies a physical slot; deletion
/// marks the slot dead and leaves a hole until the next compaction. Clients
/// address tuples by TupleId, which maps to the current slot through a
/// sorted id table (`slot_to_id_`): ids are assigned in insert order and
/// compaction preserves the relative order of survivors, so the table stays
/// strictly increasing and the id→slot lookup is a binary search — O(log n),
/// O(live) memory, no hashing. Slots are grouped into fixed
/// core::kObjectiveShardRows-sized shards, each holding a
/// Neumaier-compensated partial coefficient sum over its live tuples,
/// accumulated in slot order through the same
/// core::AccumulateTupleContribution(Batch) primitives the offline
/// accumulator uses. The class invariant — what makes incremental
/// maintenance trustworthy — is:
///
///   every non-stale shard's (sum, comp) state is bit-identical to a
///   from-scratch compensated accumulation of its live tuples in slot
///   order; a stale shard's state is all +0.0.
///
/// Inserts preserve it because appending a tuple's compensated contribution
/// IS the next step of that from-scratch accumulation; an insert into a
/// stale shard leaves the partials alone, since the shard's re-sum covers
/// the new slot. Deletes and updates preserve it by zeroing the shard's
/// partials — so no deleted contribution stays resident — and marking the
/// shard stale; the next Objective() re-sums every stale shard from its live
/// tuples (≤ 1024 of them — bounded, and exact in the sense above).
/// Compensated *subtraction* of the deleted contribution was considered and
/// rejected: it leaves the shard state dependent on the full insert/delete
/// history, so errors could accumulate over an unbounded request log and the
/// ≤1-ulp-of-fresh-build guarantee would degrade to ≤k-ulp after k deletes
/// (see docs/DETERMINISM.md, "The serving layer").
///
/// Every observer sees canonical partials. Objective() re-sums the stale
/// shards before folding, which is why it is not const; the const readers
/// SerializeTo and StoreStateBitwiseEquals compute a stale shard's partials
/// into scratch. Staleness decides only *when* a shard is re-summed, never a
/// bit an observer sees.
///
/// Consequences of the invariant:
///  - Objective() — the serial in-shard-order compensated reduction — is a
///    pure function of the live slot→tuple map: bit-identical for every
///    FM_THREADS, every insert grouping, and every delete path that arrives
///    at the same live map.
///  - An insert-then-delete round trip restores the previous state exactly
///    (bitwise), not just approximately.
///  - Against the canonical offline build on the same live tuples
///    (ObjectiveAccumulator::Build over Materialize()), holes shift the
///    shard packing, so bits may differ — but both are compensated faithful
///    summations of the identical tuple multiset, so every coefficient
///    agrees within 1 ulp (asserted in tests/serve_test.cc).
///
/// Compaction. Under insert+delete churn the slot space — and the dead
/// shard skeletons Objective() must walk — would otherwise grow with total
/// insert history. Compact() densely rewrites the store in live-slot order,
/// rebuilds every shard partial from scratch (per-shard parallel, each
/// shard serial in slot order), and releases the freed capacity, restoring
/// O(live) memory and O(live shards · d²) objective derivation. The
/// compaction contract is bitwise: the post-compaction store state —
/// tuples, liveness, and every shard's (sum, comp) pair — is bit-identical
/// to a fresh store fed the surviving tuples in order, for every pool size
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
  size_t num_shards() const { return shard_sums_.size(); }
  /// Shards holding at least one live tuple — what Objective() pays for.
  size_t live_shards() const;

  /// Validates the §3 normalization contract for `kind` (finite values,
  /// ‖x‖₂ ≤ 1; y ∈ [−1, 1] for kLinear, y ∈ {0, 1} for kTruncatedLogistic)
  /// and appends the tuple. O(d²). Returns the assigned TupleId.
  Result<TupleId> Insert(const double* x, size_t dim, double y);
  Result<TupleId> Insert(const linalg::Vector& x, double y);

  /// Bulk insert of every tuple of `tuples` (validated up front; rejected
  /// atomically — either all rows pass and are inserted or none are).
  /// Returns the first assigned id; the batch occupies consecutive ids.
  /// Accumulates affected shards concurrently on `pool` (nullptr → the
  /// global FM_THREADS pool); bit-identical to the equivalent sequence of
  /// single Inserts for every pool size.
  Result<TupleId> InsertBatch(const data::RegressionDataset& tuples,
                              exec::ThreadPool* pool = nullptr);

  /// True when `id` refers to a live tuple.
  bool Contains(TupleId id) const;

  /// Marks `id`'s tuple dead, scrubs its raw values, zeroes its shard's
  /// partials and marks the shard stale; the next Objective() re-sums it.
  /// O(log n + d²). Fails with kNotFound when the id was never assigned or
  /// its tuple is already dead.
  Status Delete(TupleId id);

  /// Replaces `id`'s tuple in place (validating the new tuple) and marks
  /// its shard stale, as Delete does. Equivalent to Delete + re-Insert,
  /// except the id — and the slot layout — are preserved. O(log n + d²).
  Status Update(TupleId id, const double* x, size_t dim, double y);

  /// Densely rewrites the store in live-slot order, rebuilds every shard
  /// partial from scratch on `pool` (per-shard parallel; nullptr → the
  /// global FM_THREADS pool), drops the dead tail, and releases freed
  /// capacity. Returns the number of slots reclaimed (0 for an
  /// already-dense store, of which only the stale shards are re-summed).
  /// Afterwards no shard is stale, the store state is bit-identical to a
  /// fresh store fed Materialize()'s tuples in order, and every surviving
  /// TupleId still resolves.
  size_t Compact(exec::ThreadPool* pool = nullptr);

  /// The current objective over all live tuples. First re-sums every stale
  /// shard from its live tuples, one task per shard on `pool` (nullptr →
  /// the global FM_THREADS pool); then reduces the live shards' partials
  /// serially in shard order, compensation carried, and rounds.
  /// Fully-dead shards are skipped — their partials are exact (+0, +0)
  /// pairs whose folding cannot change a bit (see the .cc note), so a
  /// half-churned store pays O(live shards · d²), not O(all shards · d²).
  /// Deterministic per the class invariant, for every pool size.
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
      if (!live_[slot]) continue;
      fn(xs_.data() + slot * dim_, ys_[slot]);
    }
  }

  /// Number of Materialize() calls on this store — the churn soak asserts
  /// the serving path stays at zero (evaluate must use ForEachLive).
  uint64_t materialize_count() const { return materialize_count_; }

  /// Appends the store state that cannot be derived — next id, tuples,
  /// liveness, id table, shard partials, raw double bytes — to `out`
  /// (snapshot payload). The partials are the canonical ones (a stale
  /// shard's computed into scratch), so the bytes do not depend on which
  /// shards are stale. RestoreFrom reproduces the state bit-for-bit, with no
  /// shard stale: the restored store StoreStateBitwiseEquals the original
  /// and assigns the same future ids.
  void SerializeTo(std::string* out) const;

  /// Replaces this store's state with a SerializeTo payload read from
  /// `reader`. The payload carries no dim or kind (the snapshot's options
  /// fingerprint pins both to this store's) and no count the liveness bytes
  /// determine: the live count, shard count and per-shard live counts are
  /// recomputed. Fails with kIoError when the payload is truncated, a
  /// liveness byte is outside {0, 1}, or the id table is not strictly
  /// increasing with the next id above it. On failure the store is left in
  /// an unspecified state — the caller (snapshot recovery) discards it.
  Status RestoreFrom(io::ByteReader& reader);

  /// From-scratch reference rebuild: a fresh IncrementalObjective holding
  /// the same slots (including holes) and ids re-accumulated from the raw
  /// tuples on `pool`, with no shard stale. By the class invariant its
  /// state — and therefore Objective() — is bit-identical to this one;
  /// tests and examples use it to verify incremental maintenance against a
  /// full recompute.
  IncrementalObjective RebuildFromScratch(exec::ThreadPool* pool = nullptr)
      const;

  /// Bitwise comparison of the tuple store and accumulator state: raw
  /// tuples, liveness, and every shard's canonical (sum, comp) doubles (a
  /// stale shard's computed into scratch) compared by their bytes (so
  /// −0.0 ≠ +0.0 and NaNs compare by payload). TupleId assignment is
  /// deliberately excluded — ids encode insert history, which a fresh store
  /// fed the same tuples does not share. This is the observable form of the
  /// compaction contract: after Compact(), StoreStateBitwiseEquals(fresh
  /// store fed Materialize()) holds.
  bool StoreStateBitwiseEquals(const IncrementalObjective& other) const;

 private:
  // Validates one tuple against the §3 contract for kind_.
  Status ValidateTuple(const double* x, size_t dim, double y) const;

  // Binary-searches slot_to_id_ (strictly increasing) for `id`; fails with
  // kNotFound when the id was never assigned, was compacted away, or its
  // slot is dead.
  Result<size_t> FindLiveSlot(TupleId id) const;

  // Accumulates the live slots in [begin, end) in slot order into
  // (sum, comp), batching through the shared core primitives (bit-identical
  // to single-tuple accumulation in the same order).
  void AccumulateSlotRange(size_t begin, size_t end, double* sum,
                           double* comp) const;

  // Same over all of shard `shard`'s slots.
  void AccumulateShardSlots(size_t shard, double* sum, double* comp) const;

  // Zeroes shard `shard`'s partials and marks it stale.
  void MarkStale(size_t shard);

  // Re-sums every stale shard from its live tuples, one task per shard on
  // `pool` (nullptr → the global pool), and clears the stale bits.
  void RefreshStaleShards(exec::ThreadPool* pool);

  // Shard `shard`'s canonical (sum, comp) partials: the stored ones, or for
  // a stale shard a from-scratch accumulation into `scratch`.
  std::pair<const double*, const double*> CanonicalPartials(
      size_t shard, std::vector<double>* scratch) const;

  // Appends storage for one tuple (no accumulation), growing shards and
  // assigning the next TupleId. Returns the new physical slot.
  size_t AppendTuple(const double* x, double y);

  size_t num_coefficients() const {
    return core::NumObjectiveCoefficients(dim_);
  }

  size_t dim_;
  core::ObjectiveKind kind_;
  std::vector<double> xs_;     // slot-major features, dim_ per slot
  std::vector<double> ys_;     // slot labels
  std::vector<uint8_t> live_;  // slot liveness
  size_t live_count_ = 0;
  // slot → TupleId. Strictly increasing (ids are assigned monotonically and
  // compaction preserves survivor order), so id → slot is a binary search.
  std::vector<TupleId> slot_to_id_;
  TupleId next_id_ = 0;  // never decremented — ids outlive compactions
  // Per-shard compensated partial coefficient sums over live tuples, plus
  // per-shard live counts (to skip fully-dead shards in Objective()) and
  // stale bits (partials zeroed by a delete or update, awaiting the next
  // Objective()'s re-sum).
  std::vector<std::vector<double>> shard_sums_;
  std::vector<std::vector<double>> shard_comps_;
  std::vector<uint32_t> shard_live_;
  std::vector<uint8_t> shard_stale_;
  // Materialize() call counter (diagnostic; see materialize_count()).
  // `mutable` because Materialize is const; reads/writes are serialized by
  // the same external synchronization the mutation API requires.
  mutable uint64_t materialize_count_ = 0;
};

}  // namespace fm::serve

#endif  // FM_SERVE_INCREMENTAL_OBJECTIVE_H_
