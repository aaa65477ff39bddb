// The serving layer's contracts, end to end:
//  - serve::IncrementalObjective maintains, under INSERT/DELETE/UPDATE, the
//    exact compensated shard state a from-scratch build would produce —
//    bitwise against a dense core::ObjectiveAccumulator::Build when the
//    store has no holes, bitwise against RebuildFromScratch always, and
//    within 1 ulp per coefficient of the dense offline build after deletes
//    punch holes in the shard packing.
//  - An insert-then-delete round trip restores the previous accumulator
//    state exactly (bitwise), not just approximately, and the shards a
//    delete or update leaves stale are invisible to every observer.
//  - The store and ledger snapshot decoders refuse payloads whose derived
//    counts disagree with their tuples or whose ledger could overspend.
//  - serve::BudgetAccountant's reserve/commit/abort ledger balances exactly
//    under concurrent hammering, and a rejected or aborted request consumes
//    no budget.
//  - TupleIds are stable: they survive deletes and compactions, are never
//    reused, and Compact() — which rewrites the slot space densely and
//    rebuilds every shard partial — leaves the store bit-identical to a
//    fresh store fed the surviving tuples in order, for every pool size.
//  - serve::Service responses — including released model coefficients — are
//    bit-identical across thread counts for a fixed request log, with
//    auto-compactions interleaved, and the auto-compaction policy keeps the
//    slot space O(live) under randomized insert/delete/update churn.
//  - Every baseline trainer rejects invalid ε uniformly (the
//    dp::ValidateEpsilon audit).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dpme.h"
#include "baselines/filter_priority.h"
#include "baselines/fm_algorithm.h"
#include "baselines/objective_perturbation.h"
#include "baselines/output_perturbation.h"
#include "common/io_util.h"
#include "common/rng.h"
#include "common/ulp.h"
#include "core/objective_accumulator.h"
#include "eval/metrics.h"
#include "exec/thread_pool.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "opt/logistic_loss.h"
#include "serve/budget_accountant.h"
#include "serve/incremental_objective.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace fm {
namespace {

uint64_t MaxUlpDistance(const opt::QuadraticModel& a,
                        const opt::QuadraticModel& b) {
  EXPECT_EQ(a.dim(), b.dim());
  uint64_t worst = UlpDistance(a.beta, b.beta);
  for (size_t i = 0; i < a.dim(); ++i) {
    worst = std::max(worst, UlpDistance(a.alpha[i], b.alpha[i]));
    for (size_t j = 0; j < a.dim(); ++j) {
      worst = std::max(worst, UlpDistance(a.m(i, j), b.m(i, j)));
    }
  }
  return worst;
}

void ExpectBitwiseEqual(const opt::QuadraticModel& a,
                        const opt::QuadraticModel& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(MaxUlpDistance(a, b), 0u);
}

data::RegressionDataset MakeDataset(size_t n, size_t d, bool binary,
                                    uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(-scale, scale);
      z += (j % 2 ? -3.0 : 3.0) * ds.x(i, j);
    }
    ds.y[i] = binary ? (rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0)
                     : std::clamp(z + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
  }
  return ds;
}

serve::IncrementalObjective StoreFromDataset(
    const data::RegressionDataset& ds, core::ObjectiveKind kind) {
  serve::IncrementalObjective store(ds.dim(), kind);
  for (size_t i = 0; i < ds.size(); ++i) {
    auto id = store.Insert(ds.x.Row(i), ds.dim(), ds.y[i]);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.ValueOrDie(), i);
  }
  return store;
}

// --------------------------------------------------------------------------
// IncrementalObjective
// --------------------------------------------------------------------------

TEST(IncrementalObjective, DenseStoreMatchesOfflineBuildBitwise) {
  // 2500 rows span three 1024-row shards, including a ragged tail.
  const auto ds = MakeDataset(2500, 6, false, 7);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  const auto offline =
      core::ObjectiveAccumulator::Build(ds, core::ObjectiveKind::kLinear);
  // No holes → identical shard packing → identical bits, even though the
  // store accumulated tuple-at-a-time and Build in batches of 4.
  ExpectBitwiseEqual(store.Objective(), offline.Global());
}

TEST(IncrementalObjective, LogisticKindMatchesOfflineBuildBitwise) {
  const auto ds = MakeDataset(1500, 5, true, 11);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kTruncatedLogistic);
  const auto offline = core::ObjectiveAccumulator::Build(
      ds, core::ObjectiveKind::kTruncatedLogistic);
  ExpectBitwiseEqual(store.Objective(), offline.Global());
}

TEST(IncrementalObjective, InsertBatchBitIdenticalToSequentialInserts) {
  const auto ds = MakeDataset(3000, 6, false, 13);
  auto sequential = StoreFromDataset(ds, core::ObjectiveKind::kLinear);

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  serve::IncrementalObjective batched1(ds.dim(),
                                       core::ObjectiveKind::kLinear);
  serve::IncrementalObjective batched8(ds.dim(),
                                       core::ObjectiveKind::kLinear);
  ASSERT_TRUE(batched1.InsertBatch(ds, &pool1).ok());
  ASSERT_TRUE(batched8.InsertBatch(ds, &pool8).ok());

  ExpectBitwiseEqual(batched1.Objective(), sequential.Objective());
  ExpectBitwiseEqual(batched8.Objective(), sequential.Objective());
}

TEST(IncrementalObjective, InsertThenDeleteRoundTripRestoresBitsExactly) {
  const auto ds = MakeDataset(2200, 6, false, 17);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  const opt::QuadraticModel before = store.Objective();

  linalg::Vector extra(6);
  Rng rng(99);
  for (auto& v : extra) v = rng.Uniform(-0.3, 0.3);
  const auto slot = store.Insert(extra, 0.5);
  ASSERT_TRUE(slot.ok());
  // The insert must actually change the objective...
  EXPECT_NE(MaxUlpDistance(before, store.Objective()), 0u);
  // ...and deleting it must restore the exact previous bits: the per-shard
  // recompute policy rebuilds the shard to the compensated in-order sum of
  // its live tuples, which is precisely the pre-insert state.
  ASSERT_TRUE(store.Delete(slot.ValueOrDie()).ok());
  ExpectBitwiseEqual(before, store.Objective());
  EXPECT_EQ(store.live_size(), ds.size());
}

TEST(IncrementalObjective, DeletedStoreWithinOneUlpOfDenseRebuild) {
  const auto ds = MakeDataset(2600, 6, false, 19);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  // Punch holes across different shards, including shard 0.
  for (const uint64_t slot : {3u, 1500u, 1023u, 2047u, 2599u}) {
    ASSERT_TRUE(store.Delete(slot).ok());
  }
  ASSERT_EQ(store.live_size(), ds.size() - 5);

  // Bitwise: a full recompute from raw tuples with the same slot layout.
  ExpectBitwiseEqual(store.Objective(),
                     store.RebuildFromScratch().Objective());

  // ≤ 1 ulp: the canonical dense offline build repacks the survivors into
  // different shards, so bits may differ, but both are compensated faithful
  // summations of the same tuple multiset.
  const auto dense = core::ObjectiveAccumulator::Build(
      store.Materialize(), core::ObjectiveKind::kLinear);
  EXPECT_LE(MaxUlpDistance(store.Objective(), dense.Global()), 1u);
}

TEST(IncrementalObjective, UpdateRewritesTupleInPlace) {
  const auto ds = MakeDataset(1100, 5, false, 23);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);

  linalg::Vector replacement(5);
  Rng rng(5);
  for (auto& v : replacement) v = rng.Uniform(-0.4, 0.4);
  ASSERT_TRUE(store.Update(700, replacement.raw(), 5, -0.25).ok());
  EXPECT_EQ(store.live_size(), ds.size());

  // Reference: the same dataset with row 700 replaced, inserted fresh.
  data::RegressionDataset modified = ds;
  modified.x.SetRow(700, replacement);
  modified.y[700] = -0.25;
  auto reference = StoreFromDataset(modified, core::ObjectiveKind::kLinear);
  ExpectBitwiseEqual(store.Objective(), reference.Objective());
}

TEST(IncrementalObjective, ValidatesTheSection3Contract) {
  serve::IncrementalObjective store(3, core::ObjectiveKind::kLinear);
  const double unit[3] = {1.0, 0.0, 0.0};
  const double big[3] = {0.9, 0.9, 0.9};  // ‖x‖ ≈ 1.56
  const double nan_x[3] = {std::numeric_limits<double>::quiet_NaN(), 0, 0};

  EXPECT_TRUE(store.Insert(unit, 3, 1.0).ok());
  EXPECT_EQ(store.Insert(big, 3, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Insert(nan_x, 3, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Insert(unit, 3, 1.5).status().code(),
            StatusCode::kInvalidArgument);  // label outside [−1, 1]
  EXPECT_EQ(store.Insert(unit, 2, 0.0).status().code(),
            StatusCode::kInvalidArgument);  // wrong dimensionality
  EXPECT_EQ(store.live_size(), 1u);

  serve::IncrementalObjective logistic(
      3, core::ObjectiveKind::kTruncatedLogistic);
  EXPECT_TRUE(logistic.Insert(unit, 3, 1.0).ok());
  EXPECT_TRUE(logistic.Insert(unit, 3, 0.0).ok());
  EXPECT_EQ(logistic.Insert(unit, 3, 0.5).status().code(),
            StatusCode::kInvalidArgument);  // labels must be 0/1
}

TEST(IncrementalObjective, DeleteUnknownOrDeadSlotFails) {
  serve::IncrementalObjective store(2, core::ObjectiveKind::kLinear);
  const double x[2] = {0.5, 0.5};
  ASSERT_TRUE(store.Insert(x, 2, 0.0).ok());
  EXPECT_EQ(store.Delete(7).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.Delete(0).ok());
  EXPECT_EQ(store.Delete(0).code(), StatusCode::kNotFound);  // double delete
  EXPECT_EQ(store.Update(0, x, 2, 0.0).code(), StatusCode::kNotFound);
}

TEST(IncrementalObjective, EmptyInsertBatchIsRejectedUpFront) {
  serve::IncrementalObjective store(3, core::ObjectiveKind::kLinear);
  data::RegressionDataset empty;
  empty.x = linalg::Matrix(0, 3);
  empty.y = linalg::Vector(0);
  EXPECT_EQ(store.InsertBatch(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.slot_count(), 0u);
  EXPECT_EQ(store.num_shards(), 0u);
}

// --------------------------------------------------------------------------
// Compaction and tuple-id stability
// --------------------------------------------------------------------------

TEST(IncrementalObjective, CompactMatchesFreshStoreBitwise) {
  const auto ds = MakeDataset(3000, 6, false, 101);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);

  // Scatter seeded-random deletes so every shard keeps ghosts (no shard
  // goes fully dead — the compaction, not the dead-shard skip, must pay
  // off).
  Rng rng(103);
  std::vector<uint64_t> live(ds.size());
  for (size_t i = 0; i < live.size(); ++i) live[i] = i;
  for (size_t k = 0; k < 1100; ++k) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
    ASSERT_TRUE(store.Delete(live[pick]).ok());
    live[pick] = live.back();
    live.pop_back();
  }
  ASSERT_EQ(store.live_size(), ds.size() - 1100);
  ASSERT_EQ(store.slot_count(), ds.size());

  EXPECT_EQ(store.Compact(), 1100u);
  EXPECT_EQ(store.slot_count(), store.live_size());
  EXPECT_EQ(store.dead_count(), 0u);
  EXPECT_EQ(store.num_shards(),
            (store.live_size() + core::kObjectiveShardRows - 1) /
                core::kObjectiveShardRows);
  EXPECT_EQ(store.live_shards(), store.num_shards());

  // The tentpole contract: the compacted store is bit-identical — tuple
  // storage AND every shard's compensated partials — to a fresh store fed
  // the surviving tuples in order.
  auto fresh =
      StoreFromDataset(store.Materialize(), core::ObjectiveKind::kLinear);
  EXPECT_TRUE(store.StoreStateBitwiseEquals(fresh));
  ExpectBitwiseEqual(store.Objective(), fresh.Objective());
}

TEST(IncrementalObjective, CompactIsBitIdenticalForEveryPoolSize) {
  const auto ds = MakeDataset(2400, 5, false, 109);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  Rng rng(111);
  for (size_t k = 0; k < 900; ++k) {
    const uint64_t victim = rng.UniformInt(ds.size());
    (void)store.Delete(victim);  // double deletes are fine — skip them
  }
  auto compact1 = store;
  auto compact8 = store;
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  EXPECT_EQ(compact1.Compact(&pool1), compact8.Compact(&pool8));
  EXPECT_TRUE(compact1.StoreStateBitwiseEquals(compact8));
  ExpectBitwiseEqual(compact1.Objective(), compact8.Objective());
}

TEST(IncrementalObjective, TupleIdsStayValidAcrossCompactions) {
  serve::IncrementalObjective store(2, core::ObjectiveKind::kLinear);
  for (size_t i = 0; i < 10; ++i) {
    const double x[2] = {0.05 * static_cast<double>(i), 0.1};
    // Dyadic labels, so the Materialize() comparison below is exact.
    ASSERT_EQ(store.Insert(x, 2, 0.125 * static_cast<double>(i) - 0.5)
                  .ValueOrDie(),
              i);
  }
  for (const serve::TupleId id : {0u, 3u, 7u}) {
    ASSERT_TRUE(store.Delete(id).ok());
  }
  EXPECT_EQ(store.Compact(), 3u);
  EXPECT_EQ(store.slot_count(), 7u);

  // Survivors keep their ids; compacted-away ids stay dead forever.
  EXPECT_FALSE(store.Contains(0));
  EXPECT_TRUE(store.Contains(1));
  EXPECT_EQ(store.Delete(0).code(), StatusCode::kNotFound);
  const double replacement[2] = {0.3, 0.4};
  EXPECT_TRUE(store.Update(9, replacement, 2, 0.5).ok());
  EXPECT_TRUE(store.Delete(5).ok());
  EXPECT_EQ(store.Delete(5).code(), StatusCode::kNotFound);

  // New inserts continue the global sequence — ids are never reused.
  const double fresh_x[2] = {0.25, 0.25};
  EXPECT_EQ(store.Insert(fresh_x, 2, 0.25).ValueOrDie(), 10u);
  EXPECT_EQ(store.Compact(), 1u);  // the hole id 5 left behind
  EXPECT_EQ(store.slot_count(), store.live_size());
  EXPECT_TRUE(store.Contains(10));
  EXPECT_FALSE(store.Contains(5));

  // The surviving tuples sit in id order with the mutations applied —
  // compaction moved exactly the right rows.
  const auto live = store.Materialize();
  const std::vector<double> expected_y = {-0.375, -0.25, 0.0, 0.25,
                                          0.5,    0.5,   0.25};
  ASSERT_EQ(live.size(), expected_y.size());
  for (size_t i = 0; i < expected_y.size(); ++i) {
    EXPECT_EQ(live.y[i], expected_y[i]) << "row " << i;
  }
}

TEST(IncrementalObjective, CompactOnDenseOrEmptiedStoreIsSafe) {
  const auto ds = MakeDataset(700, 4, false, 113);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  const auto before = store;
  EXPECT_EQ(store.Compact(), 0u);  // dense already: bitwise a no-op
  EXPECT_TRUE(store.StoreStateBitwiseEquals(before));

  for (size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(store.Delete(i).ok());
  }
  EXPECT_EQ(store.Compact(), ds.size());
  EXPECT_EQ(store.slot_count(), 0u);
  EXPECT_EQ(store.num_shards(), 0u);
  serve::IncrementalObjective empty(4, core::ObjectiveKind::kLinear);
  EXPECT_TRUE(store.StoreStateBitwiseEquals(empty));
  ExpectBitwiseEqual(store.Objective(), empty.Objective());

  // The emptied store still serves, and still never reuses an id.
  const double x[4] = {0.5, 0.0, 0.0, 0.0};
  EXPECT_EQ(store.Insert(x, 4, 0.0).ValueOrDie(), ds.size());
  EXPECT_EQ(store.live_size(), 1u);
}

TEST(IncrementalObjective, FullyDeadShardContributesNothingBitwise) {
  // 1025 tuples: shard 1 holds exactly one, so deleting it leaves a
  // fully-dead shard that Objective() must skip without changing a bit.
  const auto ds = MakeDataset(1025, 5, false, 107);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  const auto full = store.Objective();

  std::vector<size_t> head(core::kObjectiveShardRows);
  for (size_t i = 0; i < head.size(); ++i) head[i] = i;
  auto store0 =
      StoreFromDataset(ds.Select(head), core::ObjectiveKind::kLinear);

  ASSERT_TRUE(store.Delete(1024).ok());
  EXPECT_EQ(store.num_shards(), 2u);
  EXPECT_EQ(store.live_shards(), 1u);
  // The skip path folds exactly what a store that never saw shard 1 folds.
  ExpectBitwiseEqual(store.Objective(), store0.Objective());

  // Reviving the shard (slot 1025 lands in shard 1) restores the original
  // bits: the recomputed shard is again a single-tuple in-order sum.
  ASSERT_TRUE(store.Insert(ds.x.Row(1024), 5, ds.y[1024]).ok());
  EXPECT_EQ(store.live_shards(), 2u);
  ExpectBitwiseEqual(store.Objective(), full);
}

TEST(IncrementalObjective, StaleShardsAreInvisibleToEveryObserver) {
  // Deletes and updates in all four shards, then an insert into a stale
  // shard, leave every shard stale. The const readers must already see the
  // canonical partials of a from-scratch rebuild, and the deferred re-sum
  // Objective() runs on the pool must give the rebuild's bits for every
  // pool size.
  const auto ds = MakeDataset(3500, 6, false, 127);
  auto store = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  for (const uint64_t id : {5u, 1030u, 2100u, 3499u}) {
    ASSERT_TRUE(store.Delete(id).ok());
  }
  ASSERT_TRUE(store.Update(2500, ds.x.Row(7), 6, ds.y[7]).ok());
  ASSERT_TRUE(store.Insert(ds.x.Row(8), 6, ds.y[8]).ok());

  auto rebuilt = store.RebuildFromScratch();
  EXPECT_TRUE(store.StoreStateBitwiseEquals(rebuilt));
  std::string stale_bytes;
  std::string rebuilt_bytes;
  store.SerializeTo(&stale_bytes);
  rebuilt.SerializeTo(&rebuilt_bytes);
  EXPECT_EQ(stale_bytes, rebuilt_bytes);

  const opt::QuadraticModel expected = rebuilt.Objective();
  for (const size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    auto flushed = store;
    ExpectBitwiseEqual(flushed.Objective(&pool), expected);
    EXPECT_TRUE(flushed.StoreStateBitwiseEquals(rebuilt))
        << threads << " threads";
  }
}

TEST(IncrementalObjective, StaleStoresDifferingInOneTupleCompareUnequal) {
  // The canonicalising compare must not hide a real difference: two stores
  // whose stale shards differ in one live tuple compare unequal, whether
  // neither, one or both have been re-summed.
  const auto ds = MakeDataset(2100, 5, false, 131);
  auto a = StoreFromDataset(ds, core::ObjectiveKind::kLinear);
  auto b = a;
  ASSERT_TRUE(a.Delete(40).ok());
  ASSERT_TRUE(b.Delete(40).ok());
  ASSERT_TRUE(a.Update(1500, ds.x.Row(1), 5, ds.y[1]).ok());
  ASSERT_TRUE(b.Update(1500, ds.x.Row(2), 5, ds.y[2]).ok());
  EXPECT_FALSE(a.StoreStateBitwiseEquals(b));
  a.Objective();
  EXPECT_FALSE(a.StoreStateBitwiseEquals(b));
  EXPECT_FALSE(b.StoreStateBitwiseEquals(a));
  b.Objective();
  EXPECT_FALSE(a.StoreStateBitwiseEquals(b));
}

// Overwrites `field.size()` bytes of `bytes` at `offset`.
std::string Patched(std::string bytes, size_t offset,
                    const std::string& field) {
  return bytes.replace(offset, field.size(), field);
}

std::string U64Field(uint64_t value) {
  std::string field;
  io::AppendU64(&field, value);
  return field;
}

// A SerializeTo payload of a 1100-slot, d=3 store with holes at ids 4, 77
// and 1050, and the byte offsets of the fields the restore tests alter.
struct StorePayload {
  serve::IncrementalObjective store{3, core::ObjectiveKind::kLinear};
  std::string bytes;
  size_t next_id = 0;  // the first field
  size_t live = 0;     // first liveness byte
};

StorePayload EncodeStoreWithHoles() {
  constexpr size_t kDim = 3;
  StorePayload p;
  p.store = StoreFromDataset(MakeDataset(1100, kDim, false, 137),
                             core::ObjectiveKind::kLinear);
  for (const uint64_t id : {4u, 77u, 1050u}) {
    EXPECT_TRUE(p.store.Delete(id).ok());
  }
  p.store.SerializeTo(&p.bytes);
  // next_id and the slot count, then the slot-major features and labels.
  p.live = 16 + p.store.slot_count() * (kDim + 1) * sizeof(double);
  return p;
}

Status RestoreStore(const std::string& bytes) {
  serve::IncrementalObjective store(3, core::ObjectiveKind::kLinear);
  io::ByteReader reader(bytes);
  return store.RestoreFrom(reader);
}

TEST(IncrementalObjective, RestoreDerivesLiveCountsFromLivenessBytes) {
  const StorePayload p = EncodeStoreWithHoles();
  serve::IncrementalObjective restored(3, core::ObjectiveKind::kLinear);
  io::ByteReader reader(p.bytes);
  ASSERT_TRUE(restored.RestoreFrom(reader).ok());
  EXPECT_EQ(restored.live_size(), 1097u);
  EXPECT_EQ(restored.dead_count(), 3u);
  EXPECT_EQ(restored.num_shards(), 2u);
  EXPECT_EQ(restored.live_shards(), 2u);
  // Bitwise equality covers the per-shard live counts Objective() folds by.
  EXPECT_TRUE(restored.StoreStateBitwiseEquals(p.store));
  serve::IncrementalObjective original = p.store;
  ExpectBitwiseEqual(restored.Objective(), original.Objective());
}

TEST(IncrementalObjective, RestoreRejectsALivenessByteOutsideZeroOne) {
  StorePayload p = EncodeStoreWithHoles();
  ASSERT_TRUE(RestoreStore(p.bytes).ok());
  p.bytes[p.live] = 2;
  EXPECT_EQ(RestoreStore(p.bytes).code(), StatusCode::kIoError);
}

TEST(IncrementalObjective, RestoreRejectsANextIdNotAboveEveryAssignedId) {
  const StorePayload p = EncodeStoreWithHoles();
  ASSERT_TRUE(
      RestoreStore(Patched(p.bytes, p.next_id, U64Field(1100))).ok());
  EXPECT_EQ(RestoreStore(Patched(p.bytes, p.next_id, U64Field(1099))).code(),
            StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// BudgetAccountant
// --------------------------------------------------------------------------

TEST(BudgetAccountant, RejectsInvalidEpsilonEverywhere) {
  EXPECT_EQ(serve::BudgetAccountant::Create(0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::BudgetAccountant::Create(-1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serve::BudgetAccountant::Create(
                std::numeric_limits<double>::infinity())
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  auto accountant = serve::BudgetAccountant::Create(1.0).ValueOrDie();
  for (const double bad : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(accountant->Reserve(bad, "bad").status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(accountant->remaining_epsilon(), 1.0);
}

TEST(BudgetAccountant, ReserveCommitAbortLedger) {
  auto accountant = serve::BudgetAccountant::Create(1.0).ValueOrDie();

  // Reserve the Lemma-5 worst case, commit the actual spend.
  const uint64_t r1 = accountant->Reserve(0.5, "train#1").ValueOrDie();
  EXPECT_EQ(accountant->reserved_epsilon(), 0.5);
  ASSERT_TRUE(accountant->Commit(r1, 0.25).ok());
  EXPECT_EQ(accountant->spent_epsilon(), 0.25);
  EXPECT_EQ(accountant->reserved_epsilon(), 0.0);
  EXPECT_EQ(accountant->remaining_epsilon(), 0.75);

  // An aborted reservation consumes nothing.
  const uint64_t r2 = accountant->Reserve(0.75, "train#2").ValueOrDie();
  ASSERT_TRUE(accountant->Abort(r2).ok());
  EXPECT_EQ(accountant->spent_epsilon(), 0.25);
  EXPECT_EQ(accountant->remaining_epsilon(), 0.75);

  // Exhaustion: the reserve fails atomically and changes nothing.
  const uint64_t r3 = accountant->Reserve(0.5, "train#3").ValueOrDie();
  EXPECT_EQ(accountant->Reserve(0.5, "too much").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(accountant->reserved_epsilon(), 0.5);

  // Over-committing is rejected and leaves the reservation pending.
  EXPECT_EQ(accountant->Commit(r3, 0.75).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant->pending_reservations(), 1u);
  ASSERT_TRUE(accountant->Commit(r3, 0.5).ok());

  // Settled ids are gone.
  EXPECT_EQ(accountant->Commit(r3, 0.1).code(), StatusCode::kNotFound);
  EXPECT_EQ(accountant->Abort(r1).code(), StatusCode::kNotFound);

  EXPECT_EQ(accountant->spent_epsilon(), 0.75);
  EXPECT_EQ(accountant->charges().size(), 2u);
}

TEST(BudgetAccountant, SettleSettlesExactlyOnce) {
  auto accountant = serve::BudgetAccountant::Create(1.0).ValueOrDie();

  // Success: commits the actual spend and releases the rest, atomically.
  const uint64_t r1 = accountant->Reserve(0.5, "train#1").ValueOrDie();
  ASSERT_TRUE(accountant->Settle(r1, 0.25).ok());
  EXPECT_EQ(accountant->spent_epsilon(), 0.25);
  EXPECT_EQ(accountant->reserved_epsilon(), 0.0);
  EXPECT_EQ(accountant->pending_reservations(), 0u);

  // The over-reserved-commit regression: a failed commit must settle the
  // reservation exactly once — released, nothing spent, and the status
  // carries the root cause instead of a second misleading error from
  // aborting an already-settled reservation.
  const uint64_t r2 = accountant->Reserve(0.25, "train#2").ValueOrDie();
  const Status over = accountant->Settle(r2, 0.75);
  ASSERT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.message().find("released"), std::string::npos)
      << over.message();
  EXPECT_EQ(accountant->pending_reservations(), 0u);
  EXPECT_EQ(accountant->reserved_epsilon(), 0.0);
  EXPECT_EQ(accountant->spent_epsilon(), 0.25);
  // The id is gone, not pending: settling or aborting it again is NotFound.
  EXPECT_EQ(accountant->Settle(r2, 0.1).code(), StatusCode::kNotFound);
  EXPECT_EQ(accountant->Abort(r2).code(), StatusCode::kNotFound);

  // An invalid actual ε settles (releases) in the same single step.
  const uint64_t r3 = accountant->Reserve(0.5, "train#3").ValueOrDie();
  EXPECT_EQ(accountant->Settle(r3, -1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(accountant->pending_reservations(), 0u);
  EXPECT_EQ(accountant->remaining_epsilon(), 0.75);
  EXPECT_EQ(accountant->charges().size(), 1u);
}

TEST(BudgetAccountant, ConcurrentReserveCommitAbortBalancesExactly) {
  // 1/1024 is exactly representable, so every ledger transition is exact
  // arithmetic and the final balance must be EQ, not NEAR.
  constexpr double kCharge = 1.0 / 1024.0;
  constexpr size_t kThreads = 8;
  constexpr size_t kOpsPerThread = 200;
  auto accountant = serve::BudgetAccountant::Create(8.0).ValueOrDie();

  std::vector<size_t> committed(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        auto reservation = accountant->Reserve(kCharge, "stress");
        if (!reservation.ok()) continue;  // budget exhausted under race
        if ((t + op) % 3 == 0) {
          ASSERT_TRUE(accountant->Abort(reservation.ValueOrDie()).ok());
        } else {
          ASSERT_TRUE(
              accountant->Commit(reservation.ValueOrDie(), kCharge).ok());
          ++committed[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  size_t total_commits = 0;
  for (const size_t c : committed) total_commits += c;
  EXPECT_EQ(accountant->pending_reservations(), 0u);
  EXPECT_EQ(accountant->reserved_epsilon(), 0.0);
  EXPECT_EQ(accountant->spent_epsilon(),
            static_cast<double>(total_commits) * kCharge);
  EXPECT_EQ(accountant->charges().size(), total_commits);
  EXPECT_EQ(accountant->spent_epsilon() + accountant->remaining_epsilon(),
            accountant->total_epsilon());
}

TEST(BudgetAccountant, DiagnosticsKeepSmallEpsilonPrecision) {
  // std::to_string would render these ε values as "0.000000", making the
  // ledger's refusal messages useless; the %.17g formatting must keep the
  // actual magnitudes visible.
  auto accountant = serve::BudgetAccountant::Create(1e-9).ValueOrDie();

  const auto exhausted = accountant->Reserve(3e-9, "tiny-train");
  ASSERT_EQ(exhausted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(exhausted.status().message().find("0.000000"),
            std::string::npos)
      << exhausted.status().message();
  EXPECT_NE(exhausted.status().message().find("e-09"), std::string::npos)
      << exhausted.status().message();

  const uint64_t r = accountant->Reserve(1e-9, "tiny-train").ValueOrDie();
  const Status over = accountant->Commit(r, 2e-9);
  ASSERT_EQ(over.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(over.message().find("0.000000"), std::string::npos)
      << over.message();
  EXPECT_NE(over.message().find("e-09"), std::string::npos) << over.message();
  ASSERT_TRUE(accountant->Commit(r, 1e-9).ok());
}

TEST(BudgetAccountant, RestoreRefusesALedgerThatCouldOverspend) {
  auto ledger = serve::BudgetAccountant::Create(1.0).ValueOrDie();
  const uint64_t r = ledger->Reserve(0.25, "train@1").ValueOrDie();
  ASSERT_TRUE(ledger->Settle(r, 0.25).ok());
  std::string valid;
  ledger->SerializeTo(&valid);
  // Layout: spent (double), the reservation counter and the charge count
  // (u64), then each charge's ε and length-prefixed label.
  constexpr size_t kSpent = 0;
  constexpr size_t kChargeCount = 16;
  constexpr size_t kFirstCharge = 24;
  const auto restore = [](const std::string& bytes) {
    auto target = serve::BudgetAccountant::Create(1.0).ValueOrDie();
    io::ByteReader reader(bytes);
    return target->RestoreFrom(reader);
  };
  const auto with_double = [&](size_t offset, double value) {
    std::string field;
    io::AppendDouble(&field, value);
    return Patched(valid, offset, field);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(restore(valid).ok());
  // A NaN spent made `remaining` NaN, and with it every later Reserve's
  // budget check false: the restored ledger granted unlimited ε.
  EXPECT_EQ(restore(with_double(kSpent, nan)).code(), StatusCode::kIoError);
  EXPECT_EQ(restore(with_double(kSpent, -0.25)).code(), StatusCode::kIoError);
  EXPECT_EQ(restore(with_double(kSpent, 1.5)).code(), StatusCode::kIoError);
  EXPECT_EQ(restore(with_double(kFirstCharge, nan)).code(),
            StatusCode::kIoError);
  EXPECT_EQ(
      restore(Patched(valid, kChargeCount, U64Field(uint64_t{1} << 60)))
          .code(),
      StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// ModelRegistry
// --------------------------------------------------------------------------

TEST(ModelRegistry, VersionsAndSnapshotIsolation) {
  serve::ModelRegistry registry(/*max_history=*/2);
  EXPECT_EQ(registry.Latest(), nullptr);
  EXPECT_EQ(registry.latest_version(), 0u);

  serve::ModelSnapshot snapshot;
  snapshot.algorithm = "FM";
  snapshot.omega = linalg::Vector(2);
  snapshot.omega[0] = 1.0;
  EXPECT_EQ(registry.Publish(snapshot), 1u);
  const auto v1 = registry.Latest();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);

  snapshot.omega[0] = 2.0;
  EXPECT_EQ(registry.Publish(snapshot), 2u);
  snapshot.omega[0] = 3.0;
  EXPECT_EQ(registry.Publish(snapshot), 3u);

  // Version 1 was evicted (history 2) but the held snapshot stays valid:
  // reads are isolated from publishes and eviction.
  EXPECT_EQ(registry.Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v1->omega[0], 1.0);
  EXPECT_EQ(registry.Get(3).ValueOrDie()->omega[0], 3.0);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.latest_version(), 3u);
}

TEST(ModelRegistry, RestoreRejectsACountNextVersionCannotFollow) {
  serve::ModelRegistry registry;
  serve::ModelSnapshot snapshot;
  snapshot.algorithm = "FM";
  snapshot.omega = linalg::Vector{0.5, -0.25};
  registry.Publish(snapshot);
  registry.Publish(snapshot);
  std::string valid;
  registry.SerializeTo(&valid);
  // Layout: next_version and the model count (u64), then the models.
  constexpr size_t kNextVersion = 0;
  const auto restore = [](const std::string& bytes) {
    serve::ModelRegistry target;
    io::ByteReader reader(bytes);
    return target.RestoreFrom(reader, 2, data::TaskKind::kLinear);
  };
  ASSERT_TRUE(restore(valid).ok());
  EXPECT_EQ(restore(Patched(valid, kNextVersion, U64Field(0))).code(),
            StatusCode::kIoError);
  // Two retained models need next_version ≥ 3.
  EXPECT_EQ(restore(Patched(valid, kNextVersion, U64Field(2))).code(),
            StatusCode::kIoError);
}

TEST(ModelRegistry, RestoreRejectsAnIsPrivateByteOutsideZeroOne) {
  serve::ModelRegistry registry;
  serve::ModelSnapshot snapshot;
  snapshot.algorithm = "FM";
  snapshot.omega = linalg::Vector{0.5, -0.25};
  snapshot.is_private = true;
  registry.Publish(snapshot);
  std::string bytes;
  registry.SerializeTo(&bytes);
  // next_version and the count (u64), then the model: the length-prefixed
  // algorithm name, ω (2 doubles) and ε, then the is_private byte.
  const size_t is_private = 16 + 8 + 2 + 2 * 8 + 8;
  ASSERT_EQ(bytes[is_private], 1);
  const auto restore = [](const std::string& payload) {
    serve::ModelRegistry target;
    io::ByteReader reader(payload);
    return target.RestoreFrom(reader, 2, data::TaskKind::kLinear);
  };
  ASSERT_TRUE(restore(bytes).ok());
  bytes[is_private] = 2;
  EXPECT_EQ(restore(bytes).code(), StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// Service
// --------------------------------------------------------------------------

std::vector<serve::Request> MixedLog(const data::RegressionDataset& extra,
                                     size_t predicts) {
  std::vector<serve::Request> log;
  log.push_back(serve::Request::Train(serve::TrainerKind::kFunctionalMechanism,
                                      0.8));
  for (size_t i = 0; i < extra.size(); ++i) {
    log.push_back(serve::Request::Insert(extra.x.RowVector(i), extra.y[i]));
  }
  log.push_back(serve::Request::Delete(3));
  log.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.6));
  for (size_t i = 0; i < predicts; ++i) {
    log.push_back(serve::Request::Predict(extra.x.RowVector(i % extra.size())));
  }
  log.push_back(serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
  log.push_back(serve::Request::Evaluate());
  return log;
}

TEST(Service, FixedLogIsBitIdenticalAcrossThreadCounts) {
  const auto initial = MakeDataset(1800, 5, false, 31);
  const auto extra = MakeDataset(64, 5, false, 37);
  const auto log = MixedLog(extra, 40);

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  auto run = [&](exec::ThreadPool* pool) {
    serve::ServiceOptions options;
    options.dim = 5;
    options.task = data::TaskKind::kLinear;
    options.total_epsilon = 4.0;
    options.seed = 0xfeedbeef;
    options.pool = pool;
    auto service = serve::Service::Create(options).ValueOrDie();
    EXPECT_TRUE(service->Bootstrap(initial).ok());
    auto responses = service->ExecuteLog(log);
    return std::make_pair(std::move(responses), service->registry().Latest());
  };

  const auto [responses1, latest1] = run(&pool1);
  const auto [responses8, latest8] = run(&pool8);

  ASSERT_EQ(responses1.size(), responses8.size());
  for (size_t i = 0; i < responses1.size(); ++i) {
    EXPECT_EQ(responses1[i].status, responses8[i].status) << "request " << i;
    EXPECT_EQ(responses1[i].id, responses8[i].id) << "request " << i;
    EXPECT_EQ(UlpDistance(responses1[i].value, responses8[i].value), 0u)
        << "request " << i;
    EXPECT_EQ(responses1[i].model_version, responses8[i].model_version);
    EXPECT_EQ(responses1[i].epsilon_spent, responses8[i].epsilon_spent);
  }

  // The published coefficients themselves are bit-identical.
  ASSERT_NE(latest1, nullptr);
  ASSERT_NE(latest8, nullptr);
  ASSERT_EQ(latest1->omega.size(), latest8->omega.size());
  for (size_t j = 0; j < latest1->omega.size(); ++j) {
    EXPECT_EQ(UlpDistance(latest1->omega[j], latest8->omega[j]), 0u);
  }
}

TEST(Service, IncrementalModelMatchesScratchRetrainBitwise) {
  // The acceptance check of examples/fm_service.cc in test form: after
  // inserts and a delete, training from the incrementally-maintained
  // objective equals training from a full recompute of the raw tuples
  // (same slot layout, same noise substream) — bitwise, hence within the
  // required 1 ulp.
  const auto initial = MakeDataset(2100, 5, false, 41);
  serve::ServiceOptions options;
  options.dim = 5;
  options.total_epsilon = 10.0;
  auto service = serve::Service::Create(options).ValueOrDie();
  ASSERT_TRUE(service->Bootstrap(initial).ok());

  const auto extra = MakeDataset(32, 5, false, 43);
  std::vector<serve::Request> log;
  for (size_t i = 0; i < extra.size(); ++i) {
    log.push_back(serve::Request::Insert(extra.x.RowVector(i), extra.y[i]));
  }
  log.push_back(serve::Request::Delete(17));
  const uint64_t train_position = service->log_position() + log.size();
  log.push_back(
      serve::Request::Train(serve::TrainerKind::kFunctionalMechanism, 0.9));
  const auto responses = service->ExecuteLog(log);
  ASSERT_TRUE(responses.back().status.ok())
      << responses.back().status.ToString();

  // Scratch path: recompute the objective from the raw tuples and rerun the
  // mechanism on the same Fork substream the service used.
  auto scratch = service->objective().RebuildFromScratch();
  core::FmOptions fm_options;
  fm_options.epsilon = 0.9;
  Rng rng(Rng::Fork(options.seed, train_position));
  const auto trained = baselines::FmAlgorithm(fm_options)
                           .TrainFromObjective(scratch.Objective(),
                                               data::TaskKind::kLinear, rng);
  ASSERT_TRUE(trained.ok());

  const auto served = service->registry().Latest();
  ASSERT_NE(served, nullptr);
  ASSERT_EQ(served->omega.size(), trained.ValueOrDie().omega.size());
  for (size_t j = 0; j < served->omega.size(); ++j) {
    EXPECT_EQ(
        UlpDistance(served->omega[j], trained.ValueOrDie().omega[j]), 0u);
  }
  EXPECT_EQ(served->trained_on, initial.size() + extra.size() - 1);
}

TEST(Service, BudgetGovernsTrainRequests) {
  const auto initial = MakeDataset(600, 4, false, 47);
  serve::ServiceOptions options;
  options.dim = 4;
  options.total_epsilon = 1.0;
  auto service = serve::Service::Create(options).ValueOrDie();
  ASSERT_TRUE(service->Bootstrap(initial).ok());

  std::vector<serve::Request> log;
  log.push_back(serve::Request::Train(
      serve::TrainerKind::kFunctionalMechanism, 0.4));
  log.push_back(serve::Request::Train(
      serve::TrainerKind::kFunctionalMechanism, 0.4));
  // Exceeds the remaining 0.2: must fail and consume nothing.
  log.push_back(serve::Request::Train(
      serve::TrainerKind::kFunctionalMechanism, 0.4));
  // Invalid ε: rejected before touching the ledger.
  log.push_back(serve::Request::Train(
      serve::TrainerKind::kFunctionalMechanism, -1.0));
  // Non-private training is free and still works after exhaustion.
  log.push_back(serve::Request::Train(serve::TrainerKind::kNoPrivacy, 0.0));

  const auto responses = service->ExecuteLog(log);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(responses[1].status.ok());
  EXPECT_EQ(responses[2].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[4].status.ok());

  const auto& accountant = service->accountant();
  EXPECT_EQ(accountant.spent_epsilon(), 0.8);
  EXPECT_EQ(accountant.reserved_epsilon(), 0.0);
  EXPECT_EQ(accountant.pending_reservations(), 0u);
  EXPECT_EQ(accountant.charges().size(), 2u);
  EXPECT_EQ(responses[0].epsilon_spent, 0.4);
  // The non-private model is published but charged nothing.
  EXPECT_EQ(responses[4].epsilon_spent, 0.0);
  EXPECT_EQ(service->registry().size(), 3u);
}

TEST(Service, EdgeRequestsReportPerRequestErrors) {
  serve::ServiceOptions options;
  options.dim = 3;
  auto service = serve::Service::Create(options).ValueOrDie();

  std::vector<serve::Request> log;
  log.push_back(serve::Request::Predict(linalg::Vector(3)));  // no model yet
  log.push_back(serve::Request::Train(
      serve::TrainerKind::kFunctionalMechanism, 0.5));  // empty store
  log.push_back(serve::Request::Evaluate());            // no model
  log.push_back(serve::Request::Delete(0));             // nothing to delete
  // Non-finite predict features, once a model exists.
  const auto data = MakeDataset(20, 3, false, 59);
  for (size_t i = 0; i < data.size(); ++i) {
    log.push_back(serve::Request::Insert(data.x.RowVector(i), data.y[i]));
  }
  log.push_back(serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  log.push_back(serve::Request::Predict(linalg::Vector{0.1, nan, 0.0}));
  log.push_back(serve::Request::Predict(linalg::Vector{-inf, 0.0, 0.0}));
  log.push_back(serve::Request::Predict(linalg::Vector{0.0, 0.0, inf}));
  const auto responses = service->ExecuteLog(log);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[2].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses[3].status.code(), StatusCode::kNotFound);
  // A failed train on an empty store touched no budget.
  EXPECT_EQ(service->accountant().spent_epsilon(), 0.0);
  const size_t train = 4 + data.size();
  ASSERT_TRUE(responses[train].status.ok()) << responses[train].status;
  for (size_t i = train + 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status.code(), StatusCode::kInvalidArgument) << i;
    EXPECT_NE(responses[i].status.message().find("must be finite"),
              std::string::npos)
        << responses[i].status.message();
  }

  EXPECT_EQ(serve::Service::Create(serve::ServiceOptions{}).status().code(),
            StatusCode::kInvalidArgument);  // dim = 0
}

TEST(Service, ConcurrentEnqueueThenDrainServesEveryRequest) {
  const auto initial = MakeDataset(900, 4, false, 53);
  serve::ServiceOptions options;
  options.dim = 4;
  options.total_epsilon = 8.0;
  auto service = serve::Service::Create(options).ValueOrDie();
  ASSERT_TRUE(service->Bootstrap(initial).ok());
  ASSERT_TRUE(
      service
          ->ExecuteLog({serve::Request::Train(serve::TrainerKind::kTruncated,
                                              0.0)})[0]
          .status.ok());

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 50;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        linalg::Vector x(4);
        for (auto& v : x) v = rng.Uniform(-0.4, 0.4);
        if (i % 4 == 0) {
          service->Enqueue(serve::Request::Insert(x, rng.Uniform(-1.0, 1.0)));
        } else {
          service->Enqueue(serve::Request::Predict(std::move(x)));
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  const auto responses = service->Drain();
  ASSERT_EQ(responses.size(), kThreads * kPerThread);
  for (const auto& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  EXPECT_EQ(service->objective().live_size(),
            initial.size() + kThreads * ((kPerThread + 3) / 4));
}

TEST(Service, UpdateAndCompactRequests) {
  const auto initial = MakeDataset(600, 4, false, 211);
  serve::ServiceOptions options;
  options.dim = 4;
  options.total_epsilon = 4.0;
  options.auto_compact = false;  // the explicit request is under test
  auto service = serve::Service::Create(options).ValueOrDie();
  ASSERT_TRUE(service->Bootstrap(initial).ok());

  linalg::Vector replacement(4);
  Rng rng(213);
  for (auto& v : replacement) v = rng.Uniform(-0.4, 0.4);

  std::vector<serve::Request> log;
  log.push_back(serve::Request::Update(5, replacement, 0.25));
  log.push_back(serve::Request::Delete(3));
  log.push_back(serve::Request::Compact());
  log.push_back(serve::Request::Update(9999, replacement, 0.25));
  const auto responses = service->ExecuteLog(log);

  EXPECT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_EQ(responses[0].id, 5u);
  EXPECT_TRUE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[2].value, 1.0);  // one dead slot reclaimed
  EXPECT_EQ(responses[3].status.code(), StatusCode::kNotFound);

  EXPECT_EQ(service->compaction_count(), 1u);
  const auto& objective = service->objective();
  EXPECT_EQ(objective.slot_count(), objective.live_size());
  EXPECT_EQ(objective.live_size(), initial.size() - 1);
  const auto fresh = StoreFromDataset(objective.Materialize(),
                                      core::ObjectiveKind::kLinear);
  EXPECT_TRUE(objective.StoreStateBitwiseEquals(fresh));
}

TEST(Service, ChurnSoakStaysBoundedAndThreadCountInvariant) {
  // The ISSUE-5 soak: a seeded random insert/delete/update churn with
  // trains, predicts, and an aggressive auto-compaction policy, asserting
  //  (a) the slot space and shard count stay O(live) throughout,
  //  (b) the post-compaction store is bitwise a fresh store of the live
  //      tuples,
  //  (c) every TupleId stays valid across however many compactions remap
  //      its slot (all delete/update responses are OK by construction),
  //  (d) every response is byte-identical across FM_THREADS 1 vs 8 and
  //      across batched vs one-request-at-a-time execution.
  constexpr size_t kDim = 4;
  constexpr size_t kOps = 2600;
  constexpr size_t kMinDead = 128;
  constexpr double kDeadRatio = 0.5;

  Rng rng(0xC0FFEE);
  auto random_x = [&] {
    linalg::Vector x(kDim);
    for (auto& v : x) v = rng.Uniform(-0.45, 0.45);
    return x;
  };

  // One deterministic request log. TupleIds are predictable — the service
  // assigns them in insert order starting at 0 — so the generator can
  // track the live-id set and only ever target live tuples.
  std::vector<serve::Request> log;
  std::vector<uint64_t> live;
  uint64_t next_id = 0;
  for (size_t i = 0; i < 64; ++i) {
    log.push_back(serve::Request::Insert(random_x(), rng.Uniform(-1.0, 1.0)));
    live.push_back(next_id++);
  }
  log.push_back(serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
  size_t private_trains = 0;
  for (size_t op = 0; op < kOps; ++op) {
    const double p = rng.Uniform();
    if (p < 0.45 || live.size() < 8) {
      log.push_back(
          serve::Request::Insert(random_x(), rng.Uniform(-1.0, 1.0)));
      live.push_back(next_id++);
    } else if (p < 0.80) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      log.push_back(serve::Request::Delete(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    } else if (p < 0.90) {
      const size_t pick = static_cast<size_t>(rng.UniformInt(live.size()));
      log.push_back(serve::Request::Update(live[pick], random_x(),
                                           rng.Uniform(-1.0, 1.0)));
    } else if (p < 0.94) {
      log.push_back(serve::Request::Predict(random_x()));
    } else if (p < 0.97) {
      // Evaluates ride the churn so the streaming scorer sees stores with
      // holes at every dead-ratio the policy permits (a model always
      // exists: the log opens with a Truncated train).
      log.push_back(serve::Request::Evaluate());
    } else if (private_trains < 4) {
      // A few ε-charged FM trains so released coefficients cross
      // compaction points too (4 · 0.5 fits the 4.0 budget).
      log.push_back(serve::Request::Train(
          serve::TrainerKind::kFunctionalMechanism, 0.5));
      ++private_trains;
    } else {
      log.push_back(
          serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
    }
  }
  log.push_back(serve::Request::Compact());

  const auto make_options = [&](exec::ThreadPool* pool) {
    serve::ServiceOptions options;
    options.dim = kDim;
    options.total_epsilon = 4.0;
    options.seed = 0x50AC;
    options.pool = pool;
    options.compaction_min_dead = kMinDead;
    options.compaction_dead_ratio = kDeadRatio;
    return options;
  };

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  auto service1 = serve::Service::Create(make_options(&pool1)).ValueOrDie();
  auto service8 = serve::Service::Create(make_options(&pool8)).ValueOrDie();
  const auto responses1 = service1->ExecuteLog(log);
  const auto responses8 = service8->ExecuteLog(log);

  // (c): by construction every delete/update targeted a live id, so a
  // single failure means a compaction broke an id.
  ASSERT_EQ(responses1.size(), log.size());
  for (size_t i = 0; i < responses1.size(); ++i) {
    EXPECT_TRUE(responses1[i].status.ok())
        << "request " << i << ": " << responses1[i].status.ToString();
  }
  EXPECT_GT(service1->compaction_count(), 1u);
  EXPECT_EQ(service1->compaction_count(), service8->compaction_count());

  // (d): byte-identical across thread counts, compactions interleaved.
  for (size_t i = 0; i < responses1.size(); ++i) {
    EXPECT_EQ(responses1[i].status, responses8[i].status) << "request " << i;
    EXPECT_EQ(responses1[i].id, responses8[i].id) << "request " << i;
    EXPECT_EQ(UlpDistance(responses1[i].value, responses8[i].value), 0u)
        << "request " << i;
    EXPECT_EQ(responses1[i].model_version, responses8[i].model_version);
    EXPECT_EQ(responses1[i].epsilon_spent, responses8[i].epsilon_spent);
  }

  // (d) continued: serializability across batching — replaying the log one
  // request at a time reproduces every response byte for byte, and the
  // auto-compaction policy invariant (dead < max(min_dead, ratio·live))
  // holds after every single request.
  auto replay = serve::Service::Create(make_options(nullptr)).ValueOrDie();
  for (size_t i = 0; i < log.size(); ++i) {
    const auto response = replay->ExecuteLog({log[i]})[0];
    ASSERT_EQ(response.status, responses1[i].status) << "request " << i;
    ASSERT_EQ(response.id, responses1[i].id) << "request " << i;
    ASSERT_EQ(UlpDistance(response.value, responses1[i].value), 0u)
        << "request " << i;
    ASSERT_EQ(response.model_version, responses1[i].model_version);
    const auto& objective = replay->objective();
    const size_t dead = objective.dead_count();
    EXPECT_TRUE(dead < kMinDead ||
                static_cast<double>(dead) <
                    kDeadRatio * static_cast<double>(objective.live_size()))
        << "slot space unbounded after request " << i << ": dead = " << dead
        << ", live = " << objective.live_size();
  }

  // (a): the log ends with an explicit Compact, so the store is dense and
  // its shard count is exactly ceil(live / shard rows).
  const auto& objective = service1->objective();
  EXPECT_EQ(objective.live_size(), live.size());
  EXPECT_EQ(objective.slot_count(), objective.live_size());
  EXPECT_EQ(objective.num_shards(),
            (objective.live_size() + core::kObjectiveShardRows - 1) /
                core::kObjectiveShardRows);

  // Evaluate never materializes the store: the soak's evaluates all went
  // through the live-slot streaming view (the test's own Materialize call
  // below is the first one ever).
  EXPECT_EQ(objective.materialize_count(), 0u);
  EXPECT_EQ(service8->objective().materialize_count(), 0u);
  EXPECT_EQ(replay->objective().materialize_count(), 0u);

  // (b): bitwise equal to a fresh store fed the live tuples in order.
  auto fresh = StoreFromDataset(objective.Materialize(),
                                core::ObjectiveKind::kLinear);
  EXPECT_TRUE(objective.StoreStateBitwiseEquals(fresh));
  ExpectBitwiseEqual(serve::IncrementalObjective(objective).Objective(),
                     fresh.Objective());
}

TEST(Service, EvaluateStreamsTheStoreWithoutMaterializing) {
  // Evaluate used to materialize the entire live store — an O(n·d)
  // allocation per request. It now scores through the live-slot iteration
  // view, which must be bit-identical to the materialized path (same
  // packing order, same accumulation) without ever copying the store.
  serve::ServiceOptions options;
  options.dim = 3;
  auto service = serve::Service::Create(options).ValueOrDie();

  Rng rng(0xE7A1);
  std::vector<serve::Request> log;
  for (size_t i = 0; i < 40; ++i) {
    linalg::Vector x(3);
    for (size_t j = 0; j < 3; ++j) x[j] = rng.Uniform(-0.5, 0.5);
    log.push_back(serve::Request::Insert(x, rng.Uniform(-1.0, 1.0)));
  }
  // Punch holes so the slot view has dead slots to skip.
  for (uint64_t id = 0; id < 40; id += 5) {
    log.push_back(serve::Request::Delete(id));
  }
  log.push_back(serve::Request::Train(serve::TrainerKind::kTruncated, 0.0));
  log.push_back(serve::Request::Evaluate());

  const auto responses = service->ExecuteLog(log);
  const auto& evaluate = responses.back();
  ASSERT_TRUE(evaluate.status.ok()) << evaluate.status.ToString();
  EXPECT_EQ(service->objective().materialize_count(), 0u);

  const auto model = service->registry().Latest();
  ASSERT_NE(model, nullptr);
  const auto materialized = service->objective().Materialize();
  EXPECT_EQ(UlpDistance(evaluate.value,
                        eval::TaskError(options.task, model->omega,
                                        materialized)),
            0u);
  EXPECT_EQ(service->objective().materialize_count(), 1u);
}

TEST(Service, RacingDrainsSerializeAndCountersStayReadable) {
  // Racing Drain calls serialize on the execution mutex (each drained batch
  // executes atomically in ticket order) while log_position() /
  // compaction_count() stay safely readable mid-flight — the counters are
  // atomics, so a concurrent reader sees monotone positions, never torn
  // values. Run under TSan in CI.
  constexpr size_t kInserts = 600;
  serve::ServiceOptions options;
  options.dim = 2;
  auto service = serve::Service::Create(options).ValueOrDie();

  std::atomic<bool> done{false};
  std::atomic<size_t> drained{0};
  auto drainer = [&] {
    while (!done.load()) {
      drained += service->Drain().size();
    }
    drained += service->Drain().size();
  };
  std::thread drain1(drainer);
  std::thread drain2(drainer);
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t position = service->log_position();
      EXPECT_GE(position, last);
      last = position;
      (void)service->compaction_count();
    }
  });

  Rng rng(0xD12A);
  for (size_t i = 0; i < kInserts; ++i) {
    linalg::Vector x(2);
    x[0] = rng.Uniform(-0.5, 0.5);
    x[1] = rng.Uniform(-0.5, 0.5);
    service->Enqueue(serve::Request::Insert(std::move(x), 0.25));
  }
  done.store(true);
  drain1.join();
  drain2.join();
  reader.join();

  EXPECT_EQ(drained.load(), kInserts);
  EXPECT_EQ(service->log_position(), kInserts);
  EXPECT_EQ(service->objective().live_size(), kInserts);
}

TEST(Service, MixedWorkloadPopulatesPerKindMetrics) {
  const auto initial = MakeDataset(1500, 5, false, 53);
  const auto extra = MakeDataset(48, 5, false, 59);
  const auto log = MixedLog(extra, 25);

  serve::ServiceOptions options;
  options.dim = 5;
  options.total_epsilon = 4.0;
  auto service = serve::Service::Create(options).ValueOrDie();
  ASSERT_TRUE(service->Bootstrap(initial).ok());
  const auto responses = service->ExecuteLog(log);
  ASSERT_EQ(responses.size(), log.size());

  obs::MetricsRegistry* metrics = service->metrics();
  ASSERT_NE(metrics, nullptr);

  // Per-kind ok counters match the workload shape (every MixedLog request
  // succeeds against a bootstrapped store with a fresh ε budget).
  const auto ok_count = [&](const char* kind) {
    const obs::Counter* counter = metrics->FindCounter(
        std::string("fm_serve_requests_total{kind=\"") + kind +
        "\",outcome=\"ok\"}");
    return counter == nullptr ? uint64_t{0} : counter->Value();
  };
  EXPECT_EQ(ok_count("insert"), extra.size());
  EXPECT_EQ(ok_count("delete"), 1u);
  EXPECT_EQ(ok_count("predict"), 25u);
  EXPECT_EQ(ok_count("train"), 3u);
  EXPECT_EQ(ok_count("evaluate"), 1u);

  // The exactly-one-outcome invariant: every executed request recorded one
  // outcome, so the counters total the log size.
  constexpr const char* kKinds[] = {"insert",  "delete",   "update",
                                    "train",   "predict",  "evaluate",
                                    "compact"};
  constexpr const char* kOutcomes[] = {
      "ok",       "invalid_argument",   "not_found",
      "failed_precondition",            "resource_exhausted",
      "degraded_read_only", "io_error", "other"};
  uint64_t outcome_total = 0;
  for (const char* kind : kKinds) {
    for (const char* outcome : kOutcomes) {
      const obs::Counter* counter = metrics->FindCounter(
          std::string("fm_serve_requests_total{kind=\"") + kind +
          "\",outcome=\"" + outcome + "\"}");
      ASSERT_NE(counter, nullptr) << kind << "/" << outcome;
      outcome_total += counter->Value();
    }
  }
  EXPECT_EQ(outcome_total, log.size());

  // Latency histograms count one observation per request of their kind.
  const obs::Histogram* predict_nanos =
      metrics->FindHistogram("fm_serve_request_nanos{kind=\"predict\"}");
  ASSERT_NE(predict_nanos, nullptr);
  EXPECT_EQ(predict_nanos->Count(), 25u);
  EXPECT_GE(predict_nanos->Sum(), 0);

  // Both stats surfaces render, and the polled gauges reflect the store.
  const std::string json = service->MetricsSnapshot();
  EXPECT_NE(json.find("\"fm_store_live_tuples\":"), std::string::npos);
  EXPECT_NE(json.find("\"fm_budget_epsilon_spent\":"), std::string::npos);
  EXPECT_NE(json.find("\"fm_serve_log_position\":"), std::string::npos);
  const std::string prometheus = service->DumpMetrics();
  EXPECT_NE(prometheus.find("# TYPE fm_serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(prometheus.find("fm_serve_log_position"), std::string::npos);
}

TEST(Service, MetricsSwitchNeverChangesResponseBytes) {
  // The observation-only contract in unit-test form (the fuzz harness's
  // metrics axis proves it at scale): enable_metrics on vs off produces
  // bit-identical responses for the same log.
  const auto initial = MakeDataset(1200, 4, false, 61);
  const auto extra = MakeDataset(32, 4, false, 67);
  const auto log = MixedLog(extra, 20);

  auto run = [&](bool enable_metrics) {
    serve::ServiceOptions options;
    options.dim = 4;
    options.seed = 0xabcdef01;
    options.enable_metrics = enable_metrics;
    auto service = serve::Service::Create(options).ValueOrDie();
    EXPECT_TRUE(service->Bootstrap(initial).ok());
    auto responses = service->ExecuteLog(log);
    if (!enable_metrics) {
      EXPECT_EQ(service->metrics(), nullptr);
      EXPECT_EQ(service->MetricsSnapshot(), "{}");
      EXPECT_EQ(service->DumpMetrics(), "");
    }
    return responses;
  };

  const auto with = run(true);
  const auto without = run(false);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].status, without[i].status) << "request " << i;
    EXPECT_EQ(with[i].id, without[i].id) << "request " << i;
    EXPECT_EQ(UlpDistance(with[i].value, without[i].value), 0u)
        << "request " << i;
    EXPECT_EQ(with[i].model_version, without[i].model_version);
    EXPECT_EQ(with[i].epsilon_spent, without[i].epsilon_spent);
  }
}

TEST(Service, TracingRecordsSpansPerBatchUnderManualClock) {
  obs::ManualClock clock;
  serve::ServiceOptions options;
  options.dim = 2;
  options.trace_requests = true;
  options.clock = &clock;
  auto service = serve::Service::Create(options).ValueOrDie();
  obs::Tracer* tracer = service->tracer();
  ASSERT_NE(tracer, nullptr);

  std::vector<serve::Request> log;
  for (int i = 0; i < 3; ++i) {
    linalg::Vector x(2);
    x[0] = 0.1;
    log.push_back(serve::Request::Insert(std::move(x), 0.5));
  }
  log.push_back(serve::Request::Evaluate());
  service->ExecuteLog(log);

  const auto records = tracer->TakeRecords();
  // One root execute_log span, one child for the insert run, one child for
  // the evaluate — children link to the root.
  ASSERT_EQ(records.size(), 3u);
  const auto root = std::find_if(
      records.begin(), records.end(),
      [](const obs::SpanRecord& r) { return r.name == "execute_log"; });
  ASSERT_NE(root, records.end());
  EXPECT_EQ(root->parent_id, 0u);
  for (const auto& record : records) {
    if (record.id == root->id) continue;
    EXPECT_EQ(record.parent_id, root->id) << record.name;
  }
}

// --------------------------------------------------------------------------
// The ε-validation audit across the baseline trainers.
// --------------------------------------------------------------------------

TEST(EpsilonValidation, EveryBaselineRejectsInvalidEpsilonUniformly) {
  const auto linear = MakeDataset(64, 3, false, 59);
  const auto logistic = MakeDataset(64, 3, true, 61);

  for (const double bad : {0.0, -0.8, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Rng rng(7);

    core::FmOptions fm_options;
    fm_options.epsilon = bad;
    EXPECT_EQ(baselines::FmAlgorithm(fm_options)
                  .Train(linear, data::TaskKind::kLinear, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "FM, epsilon=" << bad;

    baselines::Dpme::Options dpme_options;
    dpme_options.epsilon = bad;
    EXPECT_EQ(baselines::Dpme(dpme_options)
                  .Train(linear, data::TaskKind::kLinear, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "DPME, epsilon=" << bad;

    baselines::FilterPriority::Options fp_options;
    fp_options.epsilon = bad;
    EXPECT_EQ(baselines::FilterPriority(fp_options)
                  .Train(linear, data::TaskKind::kLinear, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "FP, epsilon=" << bad;

    baselines::ObjectivePerturbation::Options op_options;
    op_options.epsilon = bad;
    EXPECT_EQ(baselines::ObjectivePerturbation(op_options)
                  .Train(logistic, data::TaskKind::kLogistic, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "ObjectivePerturbation, epsilon=" << bad;

    baselines::OutputPerturbation::Options out_options;
    out_options.epsilon = bad;
    EXPECT_EQ(baselines::OutputPerturbation(out_options)
                  .Train(logistic, data::TaskKind::kLogistic, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "OutputPerturbation, epsilon=" << bad;
  }
}

}  // namespace
}  // namespace fm
