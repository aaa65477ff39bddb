#include "serve/incremental_objective.h"

#include <algorithm>
#include <cstring>

namespace fm::serve {

namespace {

// Number of chunks of at most kObjectiveShardRows entries that n entries
// fill.
size_t ChunkCount(size_t n) {
  return (n + core::kObjectiveShardRows - 1) / core::kObjectiveShardRows;
}

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
    : dim_(dim), kind_(kind), sum_(dim) {}

Status IncrementalObjective::ValidateTuple(const double* x, size_t dim,
                                           double y) const {
  if (dim != dim_) {
    return Status::InvalidArgument(
        "tuple dimensionality " + std::to_string(dim) +
        " does not match the store's " + std::to_string(dim_));
  }
  return data::CheckNormalizationContract(
      x, dim, y, core::TaskForObjectiveKind(kind_));
}

Result<size_t> IncrementalObjective::FindLiveSlot(TupleId id) const {
  if (slot_to_id_.empty() || id < slot_to_id_.front() ||
      id > slot_to_id_.back()) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  // Ids are strictly increasing integers, so the slot holding `id` is at
  // most id − front slots after the first and at most back − id slots
  // before the last. Until a compaction drops ids, the table has no gaps
  // and this window is the one slot; afterwards it is at most as wide as
  // the number of ids compacted away. The window's last id is ≥ id, so the
  // search never returns its end.
  const size_t last_slot = slot_to_id_.size() - 1;
  const size_t begin =
      last_slot -
      static_cast<size_t>(std::min<uint64_t>(last_slot,
                                             slot_to_id_.back() - id));
  const size_t end = 1 + static_cast<size_t>(std::min<uint64_t>(
                             last_slot, id - slot_to_id_.front()));
  const auto it = std::lower_bound(slot_to_id_.begin() + begin,
                                   slot_to_id_.begin() + end, id);
  if (*it != id) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  const size_t slot = static_cast<size_t>(it - slot_to_id_.begin());
  if (state_[slot] == kDead) {
    return Status::NotFound("no live tuple with id " + std::to_string(id));
  }
  return slot;
}

bool IncrementalObjective::Contains(TupleId id) const {
  return FindLiveSlot(id).ok();
}

size_t IncrementalObjective::AppendTuple(const double* x, double y) {
  const size_t slot = ys_.size();
  xs_.insert(xs_.end(), x, x + dim_);
  ys_.push_back(y);
  state_.push_back(kDead);
  slot_to_id_.push_back(next_id_++);
  ++live_count_;
  MarkPendingAdd(slot);
  return slot;
}

void IncrementalObjective::MarkPendingAdd(size_t slot) {
  if (state_[slot] == kPendingAdd) return;
  state_[slot] = kPendingAdd;
  ++pending_add_count_;
  if (slot < pending_from_) updated_slots_.push_back(slot);
}

void IncrementalObjective::RetireSummedValues(size_t slot) {
  const double* x = xs_.data() + slot * dim_;
  pending_sub_xs_.insert(pending_sub_xs_.end(), x, x + dim_);
  pending_sub_ys_.push_back(ys_[slot]);
}

Result<TupleId> IncrementalObjective::Insert(const double* x, size_t dim,
                                             double y) {
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  return slot_to_id_[AppendTuple(x, y)];
}

Result<TupleId> IncrementalObjective::Insert(const linalg::Vector& x,
                                             double y) {
  return Insert(x.raw(), x.size(), y);
}

Result<TupleId> IncrementalObjective::InsertBatch(
    const data::RegressionDataset& tuples, exec::ThreadPool* pool) {
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
  // A bulk load (a bootstrap, say) sums its rows now, on its own pool; a
  // short run leaves them to the next Objective().
  if (tuples.size() >= core::kObjectiveShardRows) ApplyPending(pool);
  return slot_to_id_[first];
}

Status IncrementalObjective::Delete(TupleId id) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  if (state_[slot] == kPendingAdd) {
    // Never summed: dropping the pending add is the whole retirement;
    // applying skips the dead slot.
    --pending_add_count_;
  } else {
    RetireSummedValues(slot);
  }
  state_[slot] = kDead;
  --live_count_;
  // Scrub the dead tuple's raw values — a deleted private record must not
  // stay resident beyond the pending subtraction that still needs it. The
  // slot itself is retained (ids stay stable) until the next compaction
  // physically frees it.
  std::fill(xs_.begin() + static_cast<ptrdiff_t>(slot * dim_),
            xs_.begin() + static_cast<ptrdiff_t>((slot + 1) * dim_), 0.0);
  ys_[slot] = 0.0;
  if (pending_sub_ys_.size() >= core::kObjectiveShardRows) {
    ApplyPendingSubtractions();
  }
  return Status::OK();
}

Status IncrementalObjective::Update(TupleId id, const double* x, size_t dim,
                                    double y) {
  FM_ASSIGN_OR_RETURN(const size_t slot, FindLiveSlot(id));
  FM_RETURN_NOT_OK(ValidateTuple(x, dim, y));
  if (state_[slot] == kSummed) RetireSummedValues(slot);
  std::memcpy(xs_.data() + slot * dim_, x, dim_ * sizeof(double));
  ys_[slot] = y;
  MarkPendingAdd(slot);
  if (pending_sub_ys_.size() >= core::kObjectiveShardRows) {
    ApplyPendingSubtractions();
  }
  return Status::OK();
}

std::vector<uint8_t> IncrementalObjective::Liveness() const {
  std::vector<uint8_t> liveness(state_.size());
  for (size_t slot = 0; slot < state_.size(); ++slot) {
    liveness[slot] = state_[slot] != kDead;
  }
  return liveness;
}

size_t IncrementalObjective::PendingAddChunks() const {
  return ChunkCount(ys_.size() - pending_from_) +
         ChunkCount(updated_slots_.size());
}

size_t IncrementalObjective::PendingSubChunks() const {
  return ChunkCount(pending_sub_ys_.size());
}

void IncrementalObjective::AddPendingAddChunk(
    size_t chunk, core::ExactObjectiveSum* sum) const {
  constexpr size_t kChunk = core::kObjectiveShardRows;
  const double* xs[kChunk];
  double ys[kChunk];
  size_t count = 0;
  const auto take = [&](size_t slot) {
    if (state_[slot] != kPendingAdd) return;  // deleted while pending
    xs[count] = xs_.data() + slot * dim_;
    ys[count] = ys_[slot];
    ++count;
  };
  const size_t tail_chunks = ChunkCount(ys_.size() - pending_from_);
  if (chunk < tail_chunks) {
    const size_t begin = pending_from_ + chunk * kChunk;
    const size_t end = std::min(ys_.size(), begin + kChunk);
    for (size_t slot = begin; slot < end; ++slot) take(slot);
  } else {
    const size_t begin = (chunk - tail_chunks) * kChunk;
    const size_t end = std::min(updated_slots_.size(), begin + kChunk);
    for (size_t i = begin; i < end; ++i) take(updated_slots_[i]);
  }
  sum->AddTuples(core::ObjectiveWeightsFor(kind_), xs, ys, count);
}

void IncrementalObjective::SubtractPendingChunk(
    size_t chunk, core::ExactObjectiveSum* sum) const {
  constexpr size_t kChunk = core::kObjectiveShardRows;
  const size_t begin = chunk * kChunk;
  const size_t end = std::min(pending_sub_ys_.size(), begin + kChunk);
  const double* xs[kChunk];
  for (size_t i = begin; i < end; ++i) {
    xs[i - begin] = pending_sub_xs_.data() + i * dim_;
  }
  sum->AddTuples(core::ObjectiveWeightsFor(kind_), xs,
                 pending_sub_ys_.data() + begin, end - begin,
                 /*subtract=*/true);
}

void IncrementalObjective::ApplyPending(exec::ThreadPool* pool) {
  // Not pending_tuples(): the appended tail and the update list may hold
  // only deleted slots, and both must be reset before Compact() renumbers
  // the slots.
  if (pending_from_ == ys_.size() && updated_slots_.empty() &&
      pending_sub_ys_.empty()) {
    return;
  }
  // The integer sum does not care which chunk or task a tuple lands in.
  const size_t add_chunks = PendingAddChunks();
  core::SumChunks(
      add_chunks + PendingSubChunks(),
      [&](size_t c, core::ExactObjectiveSum* partial) {
        if (c < add_chunks) {
          AddPendingAddChunk(c, partial);
        } else {
          SubtractPendingChunk(c - add_chunks, partial);
        }
      },
      &sum_, pool);
  for (size_t slot = pending_from_; slot < ys_.size(); ++slot) {
    if (state_[slot] == kPendingAdd) state_[slot] = kSummed;
  }
  for (const size_t slot : updated_slots_) {
    if (state_[slot] == kPendingAdd) state_[slot] = kSummed;
  }
  pending_from_ = ys_.size();
  updated_slots_.clear();
  pending_add_count_ = 0;
  ClearPendingSubtractions();
}

void IncrementalObjective::ClearPendingSubtractions() {
  // Zero, not just clear: the retired values must not linger in memory.
  std::fill(pending_sub_xs_.begin(), pending_sub_xs_.end(), 0.0);
  std::fill(pending_sub_ys_.begin(), pending_sub_ys_.end(), 0.0);
  pending_sub_xs_.clear();
  pending_sub_ys_.clear();
}

void IncrementalObjective::ApplyPendingSubtractions() {
  for (size_t c = 0; c < PendingSubChunks(); ++c) {
    SubtractPendingChunk(c, &sum_);
  }
  ClearPendingSubtractions();
}

core::ExactObjectiveSum IncrementalObjective::CanonicalSum() const {
  core::ExactObjectiveSum sum = sum_;
  for (size_t c = 0; c < PendingAddChunks(); ++c) AddPendingAddChunk(c, &sum);
  for (size_t c = 0; c < PendingSubChunks(); ++c) {
    SubtractPendingChunk(c, &sum);
  }
  return sum;
}

size_t IncrementalObjective::Compact(exec::ThreadPool* pool) {
  ApplyPending(pool);
  const size_t old_slots = ys_.size();
  if (old_slots == live_count_) return 0;
  // Slide the survivors down in slot order. Relative order is preserved, so
  // slot_to_id_ stays strictly increasing and every surviving id resolves.
  // The sum is untouched: it depends on the live tuples, not their slots.
  size_t write = 0;
  for (size_t slot = 0; slot < old_slots; ++slot) {
    if (state_[slot] == kDead) continue;
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
  state_.assign(write, kSummed);
  pending_from_ = write;
  ReleaseExcessCapacity(xs_);
  ReleaseExcessCapacity(ys_);
  ReleaseExcessCapacity(slot_to_id_);
  ReleaseExcessCapacity(state_);
  return old_slots - write;
}

opt::QuadraticModel IncrementalObjective::Objective(exec::ThreadPool* pool) {
  ApplyPending(pool);
  return sum_.Round();
}

data::RegressionDataset IncrementalObjective::Materialize() const {
  ++materialize_count_;
  data::RegressionDataset out;
  out.x = linalg::Matrix(live_count_, dim_);
  out.y = linalg::Vector(live_count_);
  size_t row = 0;
  for (size_t slot = 0; slot < ys_.size(); ++slot) {
    if (state_[slot] == kDead) continue;
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
  fresh.state_.assign(state_.size(), kDead);
  fresh.live_count_ = live_count_;
  fresh.slot_to_id_ = slot_to_id_;
  fresh.next_id_ = next_id_;
  // fresh.pending_from_ is 0, so every live slot is a pending add in the
  // appended tail.
  for (size_t slot = 0; slot < state_.size(); ++slot) {
    if (state_[slot] != kDead) fresh.MarkPendingAdd(slot);
  }
  fresh.ApplyPending(pool);
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
      live_count_ != other.live_count_ || Liveness() != other.Liveness()) {
    return false;
  }
  if (!doubles_equal(xs_, other.xs_) || !doubles_equal(ys_, other.ys_)) {
    return false;
  }
  // Canonical sums on both sides, so pending work — which decides only
  // when a contribution is summed — never makes equal states compare
  // unequal.
  return CanonicalSum() == other.CanonicalSum();
}

void IncrementalObjective::SerializeTo(std::string* out) const {
  io::AppendU64(out, next_id_);
  io::AppendU64(out, ys_.size());
  io::AppendDoubleArray(out, xs_.data(), xs_.size());
  io::AppendDoubleArray(out, ys_.data(), ys_.size());
  const std::vector<uint8_t> liveness = Liveness();
  io::AppendBytes(out, liveness.data(), liveness.size());
  for (const TupleId id : slot_to_id_) io::AppendU64(out, id);
}

Status IncrementalObjective::RestoreFrom(io::ByteReader& reader) {
  uint64_t next_id = 0;
  uint64_t slots = 0;
  FM_RETURN_NOT_OK(reader.ReadU64(&next_id));
  FM_RETURN_NOT_OK(reader.ReadU64(&slots));
  const size_t slot_count = static_cast<size_t>(slots);
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&xs_, slot_count * dim_));
  FM_RETURN_NOT_OK(reader.ReadDoubleArray(&ys_, slot_count));
  state_.resize(slot_count);
  FM_RETURN_NOT_OK(reader.ReadBytes(state_.data(), slot_count));
  // The sum is derived from these tuples, so they must mean what the store
  // would have accepted: a live tuple satisfies the §3 contract, and a dead
  // slot was scrubbed to +0.0 bytes.
  live_count_ = 0;
  pending_from_ = 0;  // every live slot is a pending add in the tail
  updated_slots_.clear();
  pending_add_count_ = 0;
  for (size_t slot = 0; slot < slot_count; ++slot) {
    const double* x = xs_.data() + slot * dim_;
    if (state_[slot] > 1) {
      return Status::IoError("snapshot liveness byte is neither 0 nor 1");
    }
    if (state_[slot] != kDead) {
      if (!ValidateTuple(x, dim_, ys_[slot]).ok()) {
        return Status::IoError(
            "snapshot live tuple violates the §3 normalization contract");
      }
      ++live_count_;
      state_[slot] = kDead;  // MarkPendingAdd sets the state
      MarkPendingAdd(slot);
      continue;
    }
    const auto scrubbed = [](double v) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      return bits == 0;
    };
    if (!std::all_of(x, x + dim_, scrubbed) || !scrubbed(ys_[slot])) {
      return Status::IoError("snapshot dead slot holds nonzero bytes");
    }
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
  sum_ = core::ExactObjectiveSum(dim_);
  ClearPendingSubtractions();
  return Status::OK();
}

}  // namespace fm::serve
