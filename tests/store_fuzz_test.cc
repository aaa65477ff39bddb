// Seeded-randomized soak for serve::IncrementalObjective — the store-level
// analogue of the service-level differential fuzzer (tests/replay_test.cc):
// drive a long random insert/delete/update/compact schedule and, every K
// ops, prove the incrementally-maintained state against the two references
// the class contract names (src/serve/incremental_objective.h):
//  - RebuildFromScratch: a from-scratch re-accumulation of the same slots
//    must be bitwise equal (StoreStateBitwiseEquals and SerializeTo bytes),
//    and so must its Objective() — the "incremental maintenance is exact"
//    invariant. Deletes and updates leave shards stale until the next
//    Objective(); the soak also calls Objective() on the store itself at
//    seeded random ops, so checks see stale, re-summed, and re-summed-then-
//    mutated states.
//  - core::ObjectiveAccumulator::Build over Materialize(): the dense
//    offline build packs shards differently once deletes punch holes, so
//    bits may differ — but every coefficient agrees within 1 ulp.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/ulp.h"
#include "core/objective_accumulator.h"
#include "exec/thread_pool.h"
#include "serve/incremental_objective.h"

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

// One contract-satisfying random tuple for `kind`.
void RandomTuple(Rng& rng, size_t dim, core::ObjectiveKind kind,
                 std::vector<double>* x, double* y) {
  const double scale = 0.9 / std::sqrt(static_cast<double>(dim));
  x->resize(dim);
  for (double& v : *x) v = rng.Uniform(-scale, scale);
  *y = kind == core::ObjectiveKind::kLinear ? rng.Uniform(-1.0, 1.0)
                                            : (rng.Bernoulli(0.5) ? 1.0 : 0.0);
}

void RunSoak(core::ObjectiveKind kind, size_t dim, uint64_t seed,
             exec::ThreadPool* pool) {
  constexpr size_t kOps = 1500;
  constexpr size_t kCheckEvery = 97;

  serve::IncrementalObjective store(dim, kind);
  std::vector<serve::TupleId> live;
  Rng rng(seed);
  Rng flushes(Rng::Fork(seed, 1));
  std::vector<double> x;
  double y = 0.0;
  size_t checks = 0;

  for (size_t op = 1; op <= kOps; ++op) {
    const double p = rng.Uniform();
    if (live.size() < 4 || p < 0.45) {
      RandomTuple(rng, dim, kind, &x, &y);
      const Result<serve::TupleId> id = store.Insert(x.data(), dim, y);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live.push_back(id.ValueOrDie());
    } else if (p < 0.70) {
      const size_t v = rng.UniformInt(live.size());
      ASSERT_TRUE(store.Delete(live[v]).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
    } else if (p < 0.92) {
      RandomTuple(rng, dim, kind, &x, &y);
      const serve::TupleId id = live[rng.UniformInt(live.size())];
      ASSERT_TRUE(store.Update(id, x.data(), dim, y).ok());
    } else {
      store.Compact(pool);
      ASSERT_EQ(store.dead_count(), 0u);
    }
    ASSERT_EQ(store.live_size(), live.size());
    // Re-sum the stale shards of the live store itself at seeded random
    // ops, so later mutations land on re-summed shards too.
    if (flushes.Bernoulli(0.1)) store.Objective(pool);

    if (op % kCheckEvery != 0 && op != kOps) continue;
    ++checks;

    // Reference 1: from-scratch rebuild of the same slot layout must be
    // bitwise identical — state, snapshot bytes, and derived objective.
    serve::IncrementalObjective rebuilt = store.RebuildFromScratch(pool);
    ASSERT_TRUE(store.StoreStateBitwiseEquals(rebuilt))
        << "incremental state diverged from a from-scratch rebuild at op "
        << op;
    std::string store_bytes;
    std::string rebuilt_bytes;
    store.SerializeTo(&store_bytes);
    rebuilt.SerializeTo(&rebuilt_bytes);
    ASSERT_EQ(store_bytes, rebuilt_bytes)
        << "snapshot bytes diverged from a from-scratch rebuild at op " << op;
    // Objective() on a copy, so the live store's stale shards stay stale for
    // the ops that follow; the re-sum must not change the canonical state.
    serve::IncrementalObjective copy = store;
    const opt::QuadraticModel objective = copy.Objective(pool);
    EXPECT_EQ(MaxUlpDistance(objective, rebuilt.Objective(pool)), 0u);
    EXPECT_TRUE(copy.StoreStateBitwiseEquals(store));

    // Reference 2: the dense offline accumulator over the live tuples —
    // different shard packing, so 1 ulp per coefficient is the bound.
    const auto offline =
        core::ObjectiveAccumulator::Build(store.Materialize(), kind);
    EXPECT_LE(MaxUlpDistance(objective, offline.Global()), 1u)
        << "objective drifted past 1 ulp of the dense build at op " << op;
  }
  EXPECT_GE(checks, kOps / kCheckEvery);
}

TEST(StoreFuzz, LinearSoakMatchesReferencesEveryK) {
  RunSoak(core::ObjectiveKind::kLinear, 5, 0x10af1, nullptr);
}

TEST(StoreFuzz, LogisticSoakMatchesReferencesEveryK) {
  RunSoak(core::ObjectiveKind::kTruncatedLogistic, 4, 0x10af2, nullptr);
}

TEST(StoreFuzz, SoakIsPoolSizeInvariant) {
  // The same schedule through an 8-thread pool: RebuildFromScratch,
  // Compact and Objective()'s stale-shard re-sum parallelize per shard, and
  // the soak's bitwise checks must hold for every pool size.
  exec::ThreadPool pool(8);
  RunSoak(core::ObjectiveKind::kLinear, 5, 0x10af1, &pool);
}

}  // namespace
}  // namespace fm
