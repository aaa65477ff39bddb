// Seeded-randomized soak for serve::IncrementalObjective — the store-level
// analogue of the service-level differential fuzzer (tests/replay_test.cc):
// drive a long random insert/delete/update/compact schedule and, every K
// ops, prove the incrementally-maintained state against the references the
// class contract names (src/serve/incremental_objective.h):
//  - RebuildFromScratch: a from-scratch sum over the same slots must be
//    bitwise equal (StoreStateBitwiseEquals and SerializeTo bytes), and so
//    must its Objective() — the "incremental maintenance is exact"
//    invariant. Mutations leave pending work until the next Objective();
//    the soak also calls Objective() on the store itself at seeded random
//    ops, so checks see pending, applied, and applied-then-mutated states.
//  - core::ObjectiveAccumulator::Build over Materialize() and a fresh store
//    fed the live tuples in shuffled order: the sum is exact, so holes and
//    order change no bit.
//  - A Neumaier-compensated reference sum: within 1 ulp per coefficient.
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
#include "neumaier_reference.h"
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

// Runs the soak; stores the final objective in *final when given.
void RunSoak(core::ObjectiveKind kind, size_t dim, uint64_t seed,
             exec::ThreadPool* pool, opt::QuadraticModel* final = nullptr) {
  constexpr size_t kOps = 1500;
  constexpr size_t kCheckEvery = 97;

  serve::IncrementalObjective store(dim, kind);
  std::vector<serve::TupleId> live;
  Rng rng(seed);
  Rng flushes(Rng::Fork(seed, 1));
  Rng shuffles(Rng::Fork(seed, 2));
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
    // Apply the pending work of the live store itself at seeded random
    // ops, so later mutations retire summed tuples too.
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
    // Objective() on a copy, so the live store's pending work stays
    // pending for the ops that follow; applying it must change neither the
    // canonical state nor the snapshot bytes.
    serve::IncrementalObjective copy = store;
    const opt::QuadraticModel objective = copy.Objective(pool);
    EXPECT_EQ(copy.pending_tuples(), 0u);
    EXPECT_EQ(MaxUlpDistance(objective, rebuilt.Objective(pool)), 0u);
    EXPECT_TRUE(copy.StoreStateBitwiseEquals(store));
    std::string copy_bytes;
    copy.SerializeTo(&copy_bytes);
    EXPECT_EQ(copy_bytes, store_bytes);

    // Reference 2: the dense offline build and a shuffled fresh store over
    // the live tuples, bitwise.
    const data::RegressionDataset tuples = store.Materialize();
    EXPECT_EQ(MaxUlpDistance(objective,
                             core::ObjectiveAccumulator::Build(tuples, kind,
                                                               pool)
                                 .Global()),
              0u)
        << "objective differs from the dense build at op " << op;
    std::vector<size_t> order(tuples.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffles.Shuffle(order);
    serve::IncrementalObjective shuffled(dim, kind);
    if (!order.empty()) {
      ASSERT_TRUE(shuffled.InsertBatch(tuples.Select(order), pool).ok());
    }
    EXPECT_EQ(MaxUlpDistance(objective, shuffled.Objective(pool)), 0u)
        << "objective differs from a shuffled fresh store at op " << op;

    // Reference 3: the compensated sum, within 1 ulp per coefficient.
    EXPECT_LE(MaxUlpDistance(objective, NeumaierObjective(tuples, kind)), 1u)
        << "objective drifted past 1 ulp of the Neumaier sum at op " << op;
  }
  EXPECT_GE(checks, kOps / kCheckEvery);
  if (final != nullptr) *final = store.Objective(pool);
}

TEST(StoreFuzz, LinearSoakMatchesReferencesEveryK) {
  RunSoak(core::ObjectiveKind::kLinear, 5, 0x10af1, nullptr);
}

TEST(StoreFuzz, LogisticSoakMatchesReferencesEveryK) {
  RunSoak(core::ObjectiveKind::kTruncatedLogistic, 4, 0x10af2, nullptr);
}

TEST(StoreFuzz, SoakIsPoolSizeInvariant) {
  // The same schedule through 1- and 8-thread pools: RebuildFromScratch,
  // Compact and Objective() apply pending work in parallel chunks, and the
  // soak's bitwise checks — and its final objective — must hold for every
  // pool size.
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool8(8);
  opt::QuadraticModel one, eight;
  RunSoak(core::ObjectiveKind::kLinear, 5, 0x10af1, &pool1, &one);
  RunSoak(core::ObjectiveKind::kLinear, 5, 0x10af1, &pool8, &eight);
  EXPECT_EQ(MaxUlpDistance(one, eight), 0u);
}

}  // namespace
}  // namespace fm
