// Differential tests for the kernel layer (src/linalg/kernels.h): the
// blocked exact-accumulation kernel must match its scalar `Ref*` oracle,
// and MatVec and the logistic Value/Gradient the per-row Dot loop, bit for
// bit — not approximately — across ragged sizes (1×1, tall-skinny, d not a
// multiple of the batch). Each test calls both sides directly on the same
// inputs; no test touches process-global state. Also checks that Cholesky
// reconstructs its input, and re-checks the ObjectiveAccumulator
// thread-count byte-identity contract.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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

// aᵀa, by the textbook loop.
linalg::Matrix AtA(const linalg::Matrix& a) {
  linalg::Matrix out(a.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t j = 0; j < a.cols(); ++j) {
      for (size_t l = 0; l < a.cols(); ++l) out(j, l) += a(r, j) * a(r, l);
    }
  }
  return out;
}

// a·aᵀ, by the textbook loop.
linalg::Matrix AAt(const linalg::Matrix& a) {
  linalg::Matrix out(a.rows(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.rows(); ++j) {
      for (size_t l = 0; l < a.cols(); ++l) out(i, j) += a(i, l) * a(j, l);
    }
  }
  return out;
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

TEST(CholeskyKernelTest, FactorReconstructsItsInput) {
  // From 1×1 up past every size a workload factors: d=13 (the figures) and
  // d=50 (serve_churn).
  for (size_t n : {1u, 2u, 5u, 13u, 31u, 32u, 33u, 50u, 64u, 65u, 100u,
                   150u}) {
    auto spd = AtA(RandomMatrix(n + 3, n, 7000 + n));
    spd.AddToDiagonal(static_cast<double>(n));
    const auto chol = linalg::Cholesky::Compute(spd);
    ASSERT_TRUE(chol.ok()) << "n=" << n;
    const linalg::Matrix& l = chol.ValueOrDie().L();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) ASSERT_EQ(l(i, j), 0.0);
    }
    EXPECT_LT(MaxAbsDiff(AAt(l), spd), 1e-12 * (1.0 + spd.MaxAbs()))
        << "Cholesky n=" << n;
  }
}

TEST(CholeskyKernelTest, NonPositiveDefiniteReportsTheBadColumn) {
  // A bad pivot must fail at its own column, whether it comes early
  // (column 20) or late (column 35) in the loop.
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

TEST(MatVecKernelTest, EachRowIsItsSequentialDot) {
  // MatVec's specification: row i of the result is kernels::Dot of row i
  // with x, bit for bit, over tall, wide and ragged shapes.
  const size_t shapes[][2] = {{1, 1},   {3, 5},    {4, 8},   {5, 13},
                              {63, 7},  {64, 64},  {1000, 3}, {129, 65},
                              {7, 32},  {6, 33}};
  uint64_t seed = 300;
  for (const auto& s : shapes) {
    const auto a = RandomMatrix(s[0], s[1], seed++);
    const auto x = RandomVector(s[1], seed++);
    linalg::Vector want(s[0]);
    for (size_t i = 0; i < s[0]; ++i) {
      want[i] = kernels::Dot(a.Row(i), x.raw(), s[1]);
    }
    EXPECT_TRUE(BitEqual(linalg::MatVec(a, x), want))
        << "MatVec " << s[0] << "x" << s[1];
  }
}

constexpr size_t kExactDims[] = {1, 2, 7, 13, 50};

// A tuple whose entries sit near ±1 or are tiny, so that with weights near
// ±4 the terms span the split's whole range, up to |t| near 4.
linalg::Vector ExtremeTuple(size_t d, Rng& rng) {
  linalg::Vector x(d);
  for (auto& v : x) {
    const double magnitude = rng.Bernoulli(0.2) ? rng.Uniform(0.0, 1e-12)
                                                : rng.Uniform(0.999, 1.0);
    v = rng.Bernoulli(0.5) ? magnitude : -magnitude;
  }
  return x;
}

double NearFour(Rng& rng) {
  return (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.Uniform(3.99, 3.999);
}

TEST(ExactKernelTest, BatchBlockedMatchesReferenceBitForBit) {
  constexpr size_t kB = kernels::kExactBatch;
  for (const size_t d : kExactDims) {
    Rng rng(500 + d);
    const size_t ncoef = d * (d + 1) / 2 + d + 1;
    // Nonzero starting words of both signs.
    std::vector<int64_t> blk_hi(ncoef), blk_lo(ncoef);
    for (size_t t = 0; t < ncoef; ++t) {
      blk_hi[t] = static_cast<int64_t>(rng.UniformInt(uint64_t{1} << 41)) -
                  (int64_t{1} << 40);
      blk_lo[t] = static_cast<int64_t>(rng.UniformInt(uint64_t{1} << 50)) -
                  (int64_t{1} << 49);
    }
    std::vector<int64_t> ref_hi = blk_hi, ref_lo = blk_lo;
    for (int batch = 0; batch < 10; ++batch) {
      linalg::Vector rows[kB];
      const double* xs[kB];
      double alpha_bias[kB], beta[kB];
      for (size_t r = 0; r < kB; ++r) {
        rows[r] = ExtremeTuple(d, rng);
        xs[r] = rows[r].raw();
        alpha_bias[r] = NearFour(rng);
        beta[r] = NearFour(rng);
      }
      const double m_scale = NearFour(rng);
      kernels::ExactTupleAccumulateBatch(blk_hi.data(), blk_lo.data(), xs, d,
                                         m_scale, alpha_bias, beta);
      kernels::RefExactTupleAccumulateBatch(ref_hi.data(), ref_lo.data(), xs,
                                            d, m_scale, alpha_bias, beta);
    }
    EXPECT_EQ(blk_hi, ref_hi) << "hi words, d=" << d;
    EXPECT_EQ(blk_lo, ref_lo) << "lo words, d=" << d;
  }
}

// The words one term t leaves in zeroed chunk words, as one fixed-point
// integer in units of 2⁻⁸²: t enters as the triangle term (m_scale·1)·1 of
// a one-dimensional tuple, and every other term of the batch is zero.
core::Int128 SplitUnits(double t) {
  constexpr size_t kB = kernels::kExactBatch;
  const double one = 1.0;
  const double zero = 0.0;
  const double* xs[kB] = {&one, &zero, &zero, &zero};
  const double alpha_bias[kB] = {};
  const double beta[kB] = {};
  int64_t hi[3] = {};
  int64_t lo[3] = {};
  kernels::ExactTupleAccumulateBatch(hi, lo, xs, 1, t, alpha_bias, beta);
  return static_cast<core::Int128>(hi[0]) *
             (core::Int128{1} << kernels::kExactLoBits) +
         lo[0];
}

TEST(ExactKernelTest, SplitIsExactOnTheGridAndRoundsBelowIt) {
  // Every double with |t| ≥ 2⁻²⁹ is a multiple of 2⁻⁸², so its split must
  // reconstruct it exactly — including hi's own ties (t an odd multiple of
  // 2⁻³³), which lo absorbs — and at the top of the range.
  Rng rng(77);
  std::vector<double> terms = {3.999999999999999, -3.999999999999999,
                               1.0,  0x1.8p-32, -0x1.8p-32, 0x1p-33,
                               0x1.0000000000001p-29};
  for (int k = 0; k < 200; ++k) {
    const int exponent = 2 - static_cast<int>(rng.UniformInt(30));
    const double t = std::ldexp(rng.Uniform(0.5, 1.0), exponent);
    terms.push_back(rng.Bernoulli(0.5) ? t : -t);
  }
  for (const double t : terms) {
    ASSERT_LT(std::fabs(t), 4.0);
    const double scaled = std::ldexp(t, 82);  // exact
    EXPECT_TRUE(SplitUnits(t) == static_cast<core::Int128>(scaled))
        << "t=" << t;
  }
  // Below the grid the low word rounds to nearest, ties to even, in units
  // of 2⁻⁸².
  EXPECT_TRUE(SplitUnits(0x1.8p-84) == 0);   // 0.375
  EXPECT_TRUE(SplitUnits(0x1.8p-83) == 1);   // 0.75
  EXPECT_TRUE(SplitUnits(0x1p-83) == 0);     // 0.5, a tie: to even
  EXPECT_TRUE(SplitUnits(0x1.8p-82) == 2);   // 1.5, a tie: to even
  EXPECT_TRUE(SplitUnits(-0x1.8p-82) == -2);
  EXPECT_TRUE(SplitUnits(0x1.4p-82) == 1);   // 1.25
  EXPECT_TRUE(SplitUnits(-0.0) == 0);
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
  // The determinism contract through the blocked kernels: the exact sum of
  // the pool's chunk partials must be bit-identical for every pool size.
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
