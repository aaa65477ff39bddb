#include "serve/incremental_objective.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "exec/parallel.h"
#include "linalg/kernels.h"

namespace fm::serve {

namespace {

// Matches data::RegressionDataset::SatisfiesNormalizationContract.
constexpr double kContractTolerance = 1e-9;

// Releases a vector's excess capacity after it has been trimmed: the
// shrink-to-fit swap idiom, spelled out so compaction provably returns
// memory to O(live) instead of relying on the non-binding
// std::vector::shrink_to_fit.
template <typename T>
void ReleaseExcessCapacity(std::vector<T>& v) {
  if (v.capacity() > v.size()) std::vector<T>(v).swap(v);
}

}  // namespace

IncrementalObjective::IncrementalObjective(size_t dim,
                                           core::ObjectiveKind kind)
    : dim_(dim), kind_(kind) {}

Status IncrementalObjective::ValidateTuple(const double* x, size_t dim,
                                           double y) const {
  if (dim != dim_) {
    return Status::InvalidArgument(
        "tuple dimensionality " + std::to_string(dim) +
        " does not match the store's " + std::to_string(dim_));
  }
  double norm_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(x[j])) {
      return Status::InvalidArgument("feature values must be finite");
    }
    norm_sq += x[j] * x[j];
  }
  if (norm_sq > (1.0 + kContractTolerance) * (1.0 + kContractTolerance)) {
    return Status::InvalidArgument(
        "‖x‖₂ > 1 violates the §3 normalization contract; run tuples "
        "through data::Normalizer first");
  }
  if (!std::isfinite(y)) {
    return Status::InvalidArgument("label must be finite");
  }
  switch (kind_) {
    case core::ObjectiveKind::kLinear:
      if (y < -1.0 - kContractTolerance || y > 1.0 + kContractTolerance) {
        return Status::InvalidArgument(
            "linear-task label outside [−1, 1] violates the §3 contract");
      }
      break;
    case core::ObjectiveKind::kTruncatedLogistic:
      if (y != 0.0 && y != 1.0) {
        return Status::InvalidArgument(
            "logistic-task label must be 0 or 1");
      }
      break;
  }
  return Status::OK();
}

Result<size_t> IncrementalObjective::FindLiveSlot(TupleId id) const {
  const auto it =
      std::lower_bound(slot_to_id_.begin(), slot_to_id_.end(), id);
  if (it == slot_to_id_.end() || *it != id) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  const size_t slot = static_cast<size_t>(it - slot_to_id_.begin());
  if (!live_[slot]) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  return slot;
}

bool IncrementalObjective::Contains(TupleId id) const {
  return FindLiveSlot(id).ok();
}

size_t IncrementalObjective::live_shards() const {
  size_t count = 0;
  for (const uint32_t live : shard_live_) count += live > 0 ? 1 : 0;
  return count;
}

size_t IncrementalObjective::AppendTuple(const double* x, double y) {
  const size_t slot = ys_.size();
  xs_.insert(xs_.end(), x, x + dim_);
  ys_.push_back(y);
  live_.push_back(1);
  slot_to_id_.push_back(next_id_++);
  ++live_count_;
  const size_t shard = slot / core::kObjectiveShardRows;
  if (shard >= shard_sums_.size()) {
    shard_sums_.emplace_back(num_coefficients(), 0.0);
    shard_comps_.emplace_back(num_coefficients(), 0.0);
    shard_live_.push_back(0);
    shard_stale_.push_back(0);
  }
  ++shard_live_[shard];
  return slot;
}

Result<TupleId> IncrementalObjective::Insert(const double* x, size_t dim,
                                             double y) {
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  const size_t slot = AppendTuple(x, y);
  const size_t shard = slot / core::kObjectiveShardRows;
  // Appending this tuple's compensated contribution is exactly the next
  // step of a from-scratch in-order accumulation of the shard's live slots
  // (the batch kernels are bit-identical to single-tuple calls in the same
  // order), so the class invariant is preserved bitwise. A stale shard is
  // left alone: its re-sum covers the new slot.
  if (!shard_stale_[shard]) {
    core::AccumulateTupleContribution(kind_, xs_.data() + slot * dim_, dim_,
                                      ys_[slot], shard_sums_[shard].data(),
                                      shard_comps_[shard].data());
  }
  return slot_to_id_[slot];
}

Result<TupleId> IncrementalObjective::Insert(const linalg::Vector& x,
                                             double y) {
  return Insert(x.raw(), x.size(), y);
}

Result<TupleId> IncrementalObjective::InsertBatch(
    const data::RegressionDataset& tuples, exec::ThreadPool* pool) {
  // Rejecting the empty batch first keeps the error path obvious and
  // guarantees the ys_.size() - 1 shard arithmetic below always runs on a
  // non-empty store.
  if (tuples.size() == 0) {
    return Status::InvalidArgument("empty insert batch");
  }
  // Validate everything before mutating anything, so a rejected batch
  // leaves the store untouched.
  for (size_t i = 0; i < tuples.size(); ++i) {
    Status status = ValidateTuple(tuples.x.Row(i), tuples.dim(), tuples.y[i]);
    if (!status.ok()) {
      return Status(status.code(), "batch row " + std::to_string(i) + ": " +
                                       status.message());
    }
  }

  const size_t first = ys_.size();
  for (size_t i = 0; i < tuples.size(); ++i) {
    AppendTuple(tuples.x.Row(i), tuples.y[i]);
  }
  // The new slots span a contiguous shard range; each affected shard's
  // partials gain its new slots' contributions in slot order, which is the
  // same per-shard operation sequence the serial Insert loop performs —
  // shards are independent, so running them concurrently cannot change a
  // bit, for any pool size. Stale shards are skipped, as in Insert.
  const size_t first_shard = first / core::kObjectiveShardRows;
  const size_t last_shard = (ys_.size() - 1) / core::kObjectiveShardRows;
  exec::ParallelFor(
      last_shard - first_shard + 1,
      [&](size_t i) {
        const size_t shard = first_shard + i;
        if (shard_stale_[shard]) return;
        const size_t shard_begin = shard * core::kObjectiveShardRows;
        const size_t begin = std::max<size_t>(first, shard_begin);
        const size_t end = std::min<size_t>(
            ys_.size(), shard_begin + core::kObjectiveShardRows);
        AccumulateSlotRange(begin, end, shard_sums_[shard].data(),
                            shard_comps_[shard].data());
      },
      pool != nullptr ? *pool : exec::ThreadPool::Global());
  return slot_to_id_[first];
}

void IncrementalObjective::AccumulateSlotRange(size_t begin, size_t end,
                                               double* sum,
                                               double* comp) const {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  const double* batch_xs[kB];
  double batch_ys[kB];
  size_t filled = 0;
  for (size_t slot = begin; slot < end; ++slot) {
    if (!live_[slot]) continue;
    batch_xs[filled] = xs_.data() + slot * dim_;
    batch_ys[filled] = ys_[slot];
    if (++filled == kB) {
      core::AccumulateTupleContributionBatch(kind_, batch_xs, dim_, batch_ys,
                                             sum, comp);
      filled = 0;
    }
  }
  for (size_t r = 0; r < filled; ++r) {
    core::AccumulateTupleContribution(kind_, batch_xs[r], dim_, batch_ys[r],
                                      sum, comp);
  }
}

void IncrementalObjective::AccumulateShardSlots(size_t shard, double* sum,
                                                double* comp) const {
  const size_t begin = shard * core::kObjectiveShardRows;
  const size_t end =
      std::min<size_t>(ys_.size(), begin + core::kObjectiveShardRows);
  AccumulateSlotRange(begin, end, sum, comp);
}

void IncrementalObjective::MarkStale(size_t shard) {
  if (shard_stale_[shard]) return;  // partials already zeroed
  // Per-shard recompute (not compensated subtraction), deferred: zeroing
  // drops every old contribution at once, and the next Objective() re-sums
  // the shard from its live tuples, restoring the invariant bitwise — see
  // the class comment and docs/DETERMINISM.md.
  std::fill(shard_sums_[shard].begin(), shard_sums_[shard].end(), 0.0);
  std::fill(shard_comps_[shard].begin(), shard_comps_[shard].end(), 0.0);
  shard_stale_[shard] = 1;
}

void IncrementalObjective::RefreshStaleShards(exec::ThreadPool* pool) {
  std::vector<size_t> stale;
  for (size_t s = 0; s < shard_stale_.size(); ++s) {
    if (shard_stale_[s]) stale.push_back(s);
  }
  // A stale shard's partials are all +0.0, so accumulating its live slots
  // is the from-scratch in-order build the invariant names — the same
  // per-shard operation sequence RebuildFromScratch runs. Shards are
  // independent, so no pool size can change a bit.
  exec::ParallelFor(
      stale.size(),
      [&](size_t i) {
        const size_t s = stale[i];
        AccumulateShardSlots(s, shard_sums_[s].data(), shard_comps_[s].data());
      },
      pool != nullptr ? *pool : exec::ThreadPool::Global());
  std::fill(shard_stale_.begin(), shard_stale_.end(), 0);
}

std::pair<const double*, const double*>
IncrementalObjective::CanonicalPartials(size_t shard,
                                        std::vector<double>* scratch) const {
  if (!shard_stale_[shard]) {
    return {shard_sums_[shard].data(), shard_comps_[shard].data()};
  }
  const size_t coefficients = num_coefficients();
  scratch->assign(2 * coefficients, 0.0);
  AccumulateShardSlots(shard, scratch->data(), scratch->data() + coefficients);
  return {scratch->data(), scratch->data() + coefficients};
}

Status IncrementalObjective::Delete(TupleId id) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  live_[slot] = 0;
  --live_count_;
  const size_t shard = slot / core::kObjectiveShardRows;
  --shard_live_[shard];
  // Scrub the dead tuple's raw values — a deleted private record must not
  // stay resident. The slot itself is retained (ids stay stable) until the
  // next compaction physically frees it.
  std::fill(xs_.begin() + static_cast<ptrdiff_t>(slot * dim_),
            xs_.begin() + static_cast<ptrdiff_t>((slot + 1) * dim_), 0.0);
  ys_[slot] = 0.0;
  MarkStale(shard);
  return Status::OK();
}

Status IncrementalObjective::Update(TupleId id, const double* x, size_t dim,
                                    double y) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  std::memcpy(xs_.data() + slot * dim_, x, dim_ * sizeof(double));
  ys_[slot] = y;
  MarkStale(slot / core::kObjectiveShardRows);
  return Status::OK();
}

size_t IncrementalObjective::Compact(exec::ThreadPool* pool) {
  const size_t old_slots = ys_.size();
  if (old_slots == live_count_) {
    // Dense already. A never-holed (or freshly compacted) store is by
    // construction in the fresh-store layout; re-summing the shards updates
    // left stale is all that remains, and it changes no bit an observer
    // sees — Compact() stays idempotent.
    RefreshStaleShards(pool);
    return 0;
  }
  // Slide the survivors down in slot order. Relative order is preserved, so
  // slot_to_id_ stays strictly increasing and every surviving id resolves.
  size_t write = 0;
  for (size_t slot = 0; slot < old_slots; ++slot) {
    if (!live_[slot]) continue;
    if (write != slot) {
      std::memmove(xs_.data() + write * dim_, xs_.data() + slot * dim_,
                   dim_ * sizeof(double));
      ys_[write] = ys_[slot];
      slot_to_id_[write] = slot_to_id_[slot];
    }
    ++write;
  }
  xs_.resize(write * dim_);
  ys_.resize(write);
  slot_to_id_.resize(write);
  live_.assign(write, 1);
  ReleaseExcessCapacity(xs_);
  ReleaseExcessCapacity(ys_);
  ReleaseExcessCapacity(slot_to_id_);
  ReleaseExcessCapacity(live_);

  // Rebuild every shard partial from scratch over the dense layout — the
  // same per-shard serial accumulation a fresh store fed these tuples in
  // order would have performed (shard boundaries depend only on the slot
  // index, and the batch kernels are bit-identical to single-tuple calls in
  // the same order), so the post-compaction state is bit-identical to that
  // fresh store for every pool size. Every shard starts zeroed and stale,
  // and the stale-shard re-sum rebuilds them all.
  const size_t shards =
      (write + core::kObjectiveShardRows - 1) / core::kObjectiveShardRows;
  shard_sums_.assign(shards, std::vector<double>(num_coefficients(), 0.0));
  shard_comps_.assign(shards, std::vector<double>(num_coefficients(), 0.0));
  shard_live_.assign(shards, 0);
  shard_stale_.assign(shards, 1);
  ReleaseExcessCapacity(shard_sums_);
  ReleaseExcessCapacity(shard_comps_);
  ReleaseExcessCapacity(shard_live_);
  ReleaseExcessCapacity(shard_stale_);
  for (size_t s = 0; s < shards; ++s) {
    shard_live_[s] = static_cast<uint32_t>(
        std::min<size_t>(write - s * core::kObjectiveShardRows,
                         core::kObjectiveShardRows));
  }
  RefreshStaleShards(pool);
  return old_slots - write;
}

opt::QuadraticModel IncrementalObjective::Objective(exec::ThreadPool* pool) {
  RefreshStaleShards(pool);
  const size_t coefficients = num_coefficients();
  std::vector<double> sum(coefficients, 0.0);
  std::vector<double> comp(coefficients, 0.0);
  // Same reduction shape as ObjectiveAccumulator::Build: shard partials
  // folded serially in shard order, compensations carried. Fully-dead
  // shards are skipped: their partials are exact (+0.0, +0.0) pairs, and
  // folding +0.0 through CompensatedAdd is the identity on every (sum,
  // comp) this reduction can reach — a running sum or compensation can
  // only be ±nonzero or +0.0 (x + y == −0.0 in round-to-nearest requires
  // both operands −0.0, and every term starts from +0.0), and
  // +0.0 + +0.0 == +0.0 — so the skip cannot change a bit.
  for (size_t s = 0; s < shard_sums_.size(); ++s) {
    if (shard_live_[s] == 0) continue;
    for (size_t idx = 0; idx < coefficients; ++idx) {
      core::CompensatedAdd(sum[idx], comp[idx], shard_sums_[s][idx]);
      comp[idx] += shard_comps_[s][idx];
    }
  }
  return core::RoundObjectiveCoefficients(dim_, sum.data(), comp.data());
}

data::RegressionDataset IncrementalObjective::Materialize() const {
  ++materialize_count_;
  data::RegressionDataset out;
  out.x = linalg::Matrix(live_count_, dim_);
  out.y = linalg::Vector(live_count_);
  size_t row = 0;
  for (size_t slot = 0; slot < ys_.size(); ++slot) {
    if (!live_[slot]) continue;
    std::memcpy(out.x.Row(row), xs_.data() + slot * dim_,
                dim_ * sizeof(double));
    out.y[row] = ys_[slot];
    ++row;
  }
  return out;
}

IncrementalObjective IncrementalObjective::RebuildFromScratch(
    exec::ThreadPool* pool) const {
  IncrementalObjective fresh(dim_, kind_);
  fresh.xs_ = xs_;
  fresh.ys_ = ys_;
  fresh.live_ = live_;
  fresh.live_count_ = live_count_;
  fresh.slot_to_id_ = slot_to_id_;
  fresh.next_id_ = next_id_;
  fresh.shard_live_ = shard_live_;
  fresh.shard_stale_.assign(shard_sums_.size(), 0);
  fresh.shard_sums_.assign(shard_sums_.size(),
                           std::vector<double>(num_coefficients(), 0.0));
  fresh.shard_comps_.assign(shard_comps_.size(),
                            std::vector<double>(num_coefficients(), 0.0));
  exec::ParallelFor(
      fresh.shard_sums_.size(),
      [&](size_t s) {
        fresh.AccumulateShardSlots(s, fresh.shard_sums_[s].data(),
                                   fresh.shard_comps_[s].data());
      },
      pool != nullptr ? *pool : exec::ThreadPool::Global());
  return fresh;
}

bool IncrementalObjective::StoreStateBitwiseEquals(
    const IncrementalObjective& other) const {
  const auto doubles_equal = [](const std::vector<double>& a,
                                const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  if (dim_ != other.dim_ || kind_ != other.kind_ ||
      live_count_ != other.live_count_ || live_ != other.live_ ||
      shard_live_ != other.shard_live_ ||
      shard_sums_.size() != other.shard_sums_.size()) {
    return false;
  }
  if (!doubles_equal(xs_, other.xs_) || !doubles_equal(ys_, other.ys_)) {
    return false;
  }
  // Canonical partials on both sides, so staleness — which decides only
  // when a shard is re-summed — never makes equal states compare unequal.
  const size_t bytes = num_coefficients() * sizeof(double);
  std::vector<double> scratch;
  std::vector<double> other_scratch;
  for (size_t s = 0; s < shard_sums_.size(); ++s) {
    const auto [sum, comp] = CanonicalPartials(s, &scratch);
    const auto [other_sum, other_comp] =
        other.CanonicalPartials(s, &other_scratch);
    if (std::memcmp(sum, other_sum, bytes) != 0 ||
        std::memcmp(comp, other_comp, bytes) != 0) {
      return false;
    }
  }
  return true;
}

void IncrementalObjective::SerializeTo(std::string* out) const {
  io::AppendU64(out, next_id_);
  io::AppendU64(out, ys_.size());
  io::AppendDoubleArray(out, xs_.data(), xs_.size());
  io::AppendDoubleArray(out, ys_.data(), ys_.size());
  io::AppendBytes(out, live_.data(), live_.size());
  for (const TupleId id : slot_to_id_) io::AppendU64(out, id);
  std::vector<double> scratch;
  for (size_t s = 0; s < shard_sums_.size(); ++s) {
    const auto [sum, comp] = CanonicalPartials(s, &scratch);
    io::AppendDoubleArray(out, sum, num_coefficients());
    io::AppendDoubleArray(out, comp, num_coefficients());
  }
}

Status IncrementalObjective::RestoreFrom(io::ByteReader& reader) {
  uint64_t next_id = 0;
  uint64_t slots = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&next_id));
  FM_RETURN_NOT_OK(reader.ReadU64(&slots));
  const size_t slot_count = static_cast<size_t>(slots);
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&xs_, slot_count * dim_));
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&ys_, slot_count));
  live_.resize(slot_count);
  FM_RETURN_NOT_OK(reader.ReadBytes(live_.data(), slot_count));
  // The live count and the per-shard live counts are derived from the
  // liveness bytes, the shard count from the slot count.
  const size_t shards =
      (slot_count + core::kObjectiveShardRows - 1) / core::kObjectiveShardRows;
  shard_live_.assign(shards, 0);
  live_count_ = 0;
  for (size_t slot = 0; slot < slot_count; ++slot) {
    if (live_[slot] > 1) {
      return Status::IoError("snapshot liveness byte is neither 0 nor 1");
    }
    shard_live_[slot / core::kObjectiveShardRows] += live_[slot];
    live_count_ += live_[slot];
  }
  slot_to_id_.resize(slot_count);
  for (size_t i = 0; i < slot_count; ++i) {
    FM_RETURN_NOT_OK(reader.ReadU64(&slot_to_id_[i]));
    if (i > 0 && slot_to_id_[i] <= slot_to_id_[i - 1]) {
      return Status::IoError("snapshot id table is not strictly increasing");
    }
  }
  if (slot_count > 0 && next_id <= slot_to_id_.back()) {
    return Status::IoError(
        "snapshot next id does not exceed every id in its table");
  }
  next_id_ = next_id;
  shard_sums_.resize(shards);
  shard_comps_.resize(shards);
  shard_stale_.assign(shards, 0);
  for (size_t s = 0; s < shards; ++s) {
    FM_RETURN_NOT_OK(
        reader.ReadDoubleArray(&shard_sums_[s], num_coefficients()));
    FM_RETURN_NOT_OK(
        reader.ReadDoubleArray(&shard_comps_[s], num_coefficients()));
  }
  return Status::OK();
}

}  // namespace fm::serve
