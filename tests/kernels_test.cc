// Differential tests for the blocked kernel layer (src/linalg/kernels.h):
// every kernel production code calls must match its scalar `Ref*` oracle
// bit for bit — not approximately — across ragged sizes (n not a multiple
// of any block size, 1×1, tall-skinny, d larger than a panel). Each test
// calls the production kernel and its oracle directly on the same inputs;
// no test touches process-global state. Also re-checks the
// ObjectiveAccumulator thread-count byte-identity contract.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/logistic_loss.h"

namespace fm {
namespace {

namespace kernels = linalg::kernels;

linalg::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

linalg::Vector RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  linalg::Vector v(n);
  for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

// Bitwise equality, including the sign of zero (memcmp on the payload).
::testing::AssertionResult BitEqual(const linalg::Matrix& a,
                                    const linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.data().empty()) return ::testing::AssertionSuccess();
  if (std::memcmp(a.data().data(), b.data().data(),
                  a.data().size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure()
           << "matrices differ; max abs diff = " << MaxAbsDiff(a, b);
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const linalg::Vector& a,
                                    const linalg::Vector& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (a.empty()) return ::testing::AssertionSuccess();
  if (std::memcmp(a.raw(), b.raw(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure()
           << "vectors differ; max abs diff = " << MaxAbsDiff(a, b);
  }
  return ::testing::AssertionSuccess();
}

TEST(SyrkKernelTest, GramBlockedMatchesReferenceBitForBit) {
  // Row counts straddle the kSyrkRowPanel=64 panel; widths straddle the
  // 4×8 register tile.
  const size_t shapes[][2] = {
      {1, 1},  {2, 3},    {7, 4},    {63, 5},   {64, 13},  {65, 13},
      {100, 1}, {129, 17}, {1000, 5}, {40, 100}, {200, 70}, {511, 33},
  };
  uint64_t seed = 100;
  for (const auto& s : shapes) {
    const auto x = RandomMatrix(s[0], s[1], seed++);
    linalg::Matrix ref(s[1], s[1]);
    kernels::RefSyrkUpperAccumulate(x.data().data(), s[1], s[0], s[1],
                                    ref.data().data(), s[1]);
    ref.SymmetrizeFromUpper();
    const auto gram = linalg::Gram(x);
    EXPECT_TRUE(BitEqual(gram, ref)) << "Gram rows=" << s[0] << " d=" << s[1];
    EXPECT_TRUE(gram.IsSymmetric(0.0));
  }
}

TEST(SyrkKernelTest, LowerSubtractBlockedMatchesReferenceBitForBit) {
  // The blocked Cholesky's trailing update: trailing sizes n straddle the
  // kCholeskyNb=32 panel and the 4×8 tile, panel widths run up to
  // kCholeskyNb, and both operands sit in wider row-major storage (ld > n).
  uint64_t seed = 200;
  for (size_t n : {1u, 2u, 5u, 8u, 31u, 32u, 33u, 64u, 65u, 100u}) {
    for (size_t width : {size_t{1}, size_t{7}, kernels::kCholeskyNb - 1,
                         kernels::kCholeskyNb}) {
      const size_t ld = n + width + 3;
      const auto p = RandomMatrix(n, ld, seed++);
      const auto c = RandomMatrix(n, ld, seed++);
      linalg::Matrix blk = c;
      linalg::Matrix ref = c;
      kernels::SyrkLowerSubtract(p.data().data(), ld, n, width,
                                 blk.data().data(), ld);
      kernels::RefSyrkLowerSubtract(p.data().data(), ld, n, width,
                                    ref.data().data(), ld);
      EXPECT_TRUE(BitEqual(blk, ref)) << "n=" << n << " width=" << width;
    }
  }
}

TEST(CholeskyKernelTest, BlockedFactorReconstructsItsInput) {
  // Sizes straddling the kCholeskyNb=32 panel: below, at, just above, and
  // several panels plus a ragged tail.
  for (size_t n : {1u, 2u, 5u, 31u, 32u, 33u, 64u, 65u, 100u, 150u}) {
    auto spd = linalg::Gram(RandomMatrix(n + 3, n, 7000 + n));
    spd.AddToDiagonal(static_cast<double>(n));
    const auto chol = linalg::Cholesky::Compute(spd);
    ASSERT_TRUE(chol.ok()) << "n=" << n;
    const linalg::Matrix& l = chol.ValueOrDie().L();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) ASSERT_EQ(l(i, j), 0.0);
    }
    // Gram(Lᵀ) = L·Lᵀ.
    EXPECT_LT(MaxAbsDiff(linalg::Gram(l.Transposed()), spd),
              1e-12 * (1.0 + spd.MaxAbs()))
        << "Cholesky n=" << n;
  }
}

TEST(CholeskyKernelTest, NonPositiveDefiniteReportsTheBadColumn) {
  // Bad pivots both inside the first kCholeskyNb=32 diagonal block (column
  // 20) and past it (column 35, reached only after a trailing update has
  // run) must fail at that column.
  for (size_t bad : {20u, 35u}) {
    linalg::Matrix not_pd = linalg::Matrix::Identity(40);
    not_pd(bad, bad) = -1.0;
    const auto result = linalg::Cholesky::Compute(not_pd);
    ASSERT_FALSE(result.ok()) << "bad=" << bad;
    EXPECT_NE(result.status().message().find("column " + std::to_string(bad)),
              std::string::npos)
        << result.status().message();
  }
}

TEST(MatVecKernelTest, BlockedMatchesReferenceBitForBit) {
  // Column counts on both sides of the 32-column cutoff of the 4-row
  // scheme, row counts on both sides of kMatVecMr.
  const size_t shapes[][2] = {{1, 1},   {3, 5},    {4, 8},   {5, 13},
                              {63, 7},  {64, 64},  {1000, 3}, {129, 65},
                              {7, 32},  {6, 33}};
  uint64_t seed = 300;
  for (const auto& s : shapes) {
    const auto a = RandomMatrix(s[0], s[1], seed++);
    const auto x = RandomVector(s[1], seed++);
    linalg::Vector ref(s[0]);
    kernels::RefMatVec(a.data().data(), s[1], s[0], s[1], x.raw(), ref.raw());
    EXPECT_TRUE(BitEqual(linalg::MatVec(a, x), ref))
        << "MatVec " << s[0] << "x" << s[1];
  }
}

// (sum, comp) coefficient state for dimension d, seeded with magnitudes on
// both sides of a tuple's contributions so the oracle's Neumaier branch
// takes both arms.
void RandomCompensatedState(size_t d, Rng& rng, linalg::Vector* sum,
                            linalg::Vector* comp) {
  const size_t ncoef = d * (d + 1) / 2 + d + 1;
  *sum = linalg::Vector(ncoef);
  *comp = linalg::Vector(ncoef);
  for (size_t t = 0; t < ncoef; ++t) {
    (*sum)[t] = rng.Uniform(-1.0, 1.0) * (rng.Bernoulli(0.5) ? 1e3 : 1e-3);
    (*comp)[t] = rng.Uniform(-1e-12, 1e-12);
  }
}

constexpr size_t kCompensatedDims[] = {1, 2, 7, 13, 50};

TEST(CompensatedKernelTest, TupleUpdateBlockedMatchesReferenceBitForBit) {
  for (const size_t d : kCompensatedDims) {
    Rng rng(400 + d);
    linalg::Vector blk_sum, blk_comp;
    RandomCompensatedState(d, rng, &blk_sum, &blk_comp);
    linalg::Vector ref_sum = blk_sum, ref_comp = blk_comp;
    for (int tuple = 0; tuple < 25; ++tuple) {
      const auto x = RandomVector(d, rng.Next());
      const double m_scale = rng.Uniform(-2.0, 2.0);
      const double alpha_bias = rng.Uniform(-2.0, 2.0);
      const double beta = rng.Uniform(-2.0, 2.0);
      kernels::CompensatedTupleUpdate(blk_sum.raw(), blk_comp.raw(),
                                      x.raw(), d, m_scale, alpha_bias, beta);
      kernels::RefCompensatedTupleUpdate(ref_sum.raw(), ref_comp.raw(),
                                         x.raw(), d, m_scale, alpha_bias,
                                         beta);
    }
    EXPECT_TRUE(BitEqual(blk_sum, ref_sum)) << "sum d=" << d;
    EXPECT_TRUE(BitEqual(blk_comp, ref_comp)) << "comp d=" << d;
  }
}

TEST(CompensatedKernelTest, BatchBlockedMatchesReferenceBitForBit) {
  constexpr size_t kB = kernels::kCompensatedBatch;
  for (const size_t d : kCompensatedDims) {
    Rng rng(500 + d);
    linalg::Vector blk_sum, blk_comp;
    RandomCompensatedState(d, rng, &blk_sum, &blk_comp);
    linalg::Vector ref_sum = blk_sum, ref_comp = blk_comp;
    for (int batch = 0; batch < 10; ++batch) {
      linalg::Vector rows[kB];
      const double* xs[kB];
      double alpha_bias[kB], beta[kB];
      for (size_t r = 0; r < kB; ++r) {
        rows[r] = RandomVector(d, rng.Next());
        xs[r] = rows[r].raw();
        alpha_bias[r] = rng.Uniform(-2.0, 2.0);
        beta[r] = rng.Uniform(-2.0, 2.0);
      }
      const double m_scale = rng.Uniform(-2.0, 2.0);
      kernels::CompensatedTupleUpdateBatch(blk_sum.raw(), blk_comp.raw(),
                                           xs, d, m_scale, alpha_bias, beta);
      kernels::RefCompensatedTupleUpdateBatch(ref_sum.raw(), ref_comp.raw(),
                                              xs, d, m_scale, alpha_bias,
                                              beta);
    }
    EXPECT_TRUE(BitEqual(blk_sum, ref_sum)) << "sum d=" << d;
    EXPECT_TRUE(BitEqual(blk_comp, ref_comp)) << "comp d=" << d;
  }
}

TEST(LogisticKernelTest, GradientAndValueMatchReferenceBitForBit) {
  // The oracle is the per-row Dot loop the objective replaced with the
  // batched MatVec + Axpy kernels: same margins, same g(j) chains.
  const double ridge = 0.1;
  for (size_t n : {1u, 5u, 64u, 257u}) {
    const size_t d = 9;
    const auto x = RandomMatrix(n, d, 400 + n);
    auto y = RandomVector(n, 500 + n);
    for (auto& v : y) v = v > 0.0 ? 1.0 : 0.0;
    const auto omega = RandomVector(d, 600 + n);
    const opt::LogisticObjective objective(x, y, ridge);

    double value = 0.0;
    linalg::Vector grad(d);
    for (size_t i = 0; i < n; ++i) {
      const double* row = x.Row(i);
      const double z = kernels::Dot(row, omega.raw(), d);
      value += opt::Log1pExp(z) - y[i] * z;
      const double r = opt::Sigmoid(z) - y[i];
      for (size_t j = 0; j < d; ++j) grad[j] += r * row[j];
    }
    value += 0.5 * ridge * Dot(omega, omega);
    grad.Axpy(ridge, omega);

    const double got = objective.Value(omega);
    EXPECT_EQ(std::memcmp(&got, &value, sizeof(double)), 0) << "n=" << n;
    EXPECT_TRUE(BitEqual(objective.Gradient(omega), grad)) << "n=" << n;
  }
}

data::RegressionDataset MakeDataset(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) ds.x(i, j) = rng.Uniform(-scale, scale);
    ds.y[i] = rng.Uniform(-1.0, 1.0);
  }
  return ds;
}

::testing::AssertionResult ModelsBitEqual(const opt::QuadraticModel& a,
                                          const opt::QuadraticModel& b) {
  if (auto m = BitEqual(a.m, b.m); !m) return m;
  if (auto alpha = BitEqual(a.alpha, b.alpha); !alpha) return alpha;
  if (std::memcmp(&a.beta, &b.beta, sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "beta differs";
  }
  return ::testing::AssertionSuccess();
}

TEST(ObjectiveAccumulatorKernelTest, ThreadCountByteIdentity) {
  // The determinism contract through the blocked kernels: fixed 1024-row
  // shards + serial shard-order reduction must stay bit-identical for every
  // pool size.
  const auto ds = MakeDataset(4200, 6, 424242);
  exec::ThreadPool serial(1);
  const auto baseline = core::ObjectiveAccumulator::Build(
      ds, core::ObjectiveKind::kLinear, &serial);
  Rng fold_rng(17);
  const auto splits = data::KFoldSplits(ds.size(), 5, fold_rng);
  for (size_t threads : {2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    const auto acc = core::ObjectiveAccumulator::Build(
        ds, core::ObjectiveKind::kLinear, &pool);
    EXPECT_TRUE(ModelsBitEqual(acc.Global(), baseline.Global()))
        << "threads=" << threads;
    EXPECT_TRUE(ModelsBitEqual(acc.TrainObjectiveForFold(splits[2].test),
                               baseline.TrainObjectiveForFold(splits[2].test)))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace fm
