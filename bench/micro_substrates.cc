// E15: google-benchmark micro-benchmarks for the substrate hot paths —
// Gram-matrix construction, Cholesky, Jacobi eigendecomposition, Laplace
// sampling, full FM fits and the Newton logistic solver.
//
// BM_CompensatedBatch is a twin: its `blocked` and `ref` instances time a
// production kernel and its scalar Ref* oracle on the same inputs.
// tools/run_bench.py pairs the two and writes the speedups to
// BENCH_linalg.json.
#include <algorithm>
#include <cmath>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/fm_linear.h"
#include "core/fm_logistic.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "core/taylor.h"
#include "data/dataset.h"
#include "dp/laplace_mechanism.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels.h"
#include "opt/logistic_loss.h"

namespace {

using namespace fm;

linalg::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.Uniform(0.0, 1.0);
  return m;
}

linalg::Matrix RandomSpd(size_t n, uint64_t seed) {
  linalg::Matrix spd = linalg::Gram(RandomMatrix(n, n, seed));
  spd.AddToDiagonal(static_cast<double>(n));
  return spd;
}

data::RegressionDataset RandomDataset(size_t n, size_t d, bool binary,
                                      uint64_t seed) {
  Rng rng(seed);
  data::RegressionDataset ds;
  ds.x = linalg::Matrix(n, d);
  ds.y = linalg::Vector(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      ds.x(i, j) = rng.Uniform(0.0, scale);
      z += (j % 2 ? -4.0 : 4.0) * ds.x(i, j);
    }
    ds.y[i] = binary ? (rng.Bernoulli(opt::Sigmoid(z)) ? 1.0 : 0.0)
                     : std::clamp(0.5 * z, -1.0, 1.0);
  }
  return ds;
}

void BM_GramMatrix(benchmark::State& state) {
  const auto x = RandomMatrix(static_cast<size_t>(state.range(0)), 13, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Gram(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GramMatrix)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_Cholesky(benchmark::State& state) {
  const auto spd = RandomSpd(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Cholesky::Compute(spd));
  }
}
BENCHMARK(BM_Cholesky)->Arg(4)->Arg(13)->Arg(64)->Arg(128)->Arg(256);

// The compensated per-tuple accumulation behind the store, the fold cache
// and every insert: state.range(0) tuples of dimension state.range(1),
// kCompensatedBatch at a time. The coefficients restart from zero every
// iteration (a fill costing 1/n of the work), so both twins add into the
// same starting state.
void BM_CompensatedBatch(
    benchmark::State& state,
    decltype(&linalg::kernels::CompensatedTupleUpdateBatch) kernel) {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  const auto x = RandomMatrix(n, d, 27);
  Rng rng(28);
  std::vector<double> alpha_bias(n), beta(n);
  for (size_t i = 0; i < n; ++i) {
    alpha_bias[i] = rng.Uniform(-1.0, 1.0);
    beta[i] = rng.Uniform(0.0, 1.0);
  }
  const size_t ncoef = d * (d + 1) / 2 + d + 1;
  std::vector<double> sum(ncoef), comp(ncoef);
  for (auto _ : state) {
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(comp.begin(), comp.end(), 0.0);
    for (size_t i = 0; i + kB <= n; i += kB) {
      const double* xs[kB];
      for (size_t r = 0; r < kB; ++r) xs[r] = x.Row(i + r);
      kernel(sum.data(), comp.data(), xs, d, 0.125, &alpha_bias[i], &beta[i]);
    }
    benchmark::DoNotOptimize(sum.data());
    benchmark::DoNotOptimize(comp.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_CompensatedBatch, blocked,
                  &linalg::kernels::CompensatedTupleUpdateBatch)
    ->Args({10000, 14})
    ->Args({4096, 50});
BENCHMARK_CAPTURE(BM_CompensatedBatch, ref,
                  &linalg::kernels::RefCompensatedTupleUpdateBatch)
    ->Args({10000, 14})
    ->Args({4096, 50});

void BM_MatVec(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  const auto a = RandomMatrix(rows, cols, 23);
  linalg::Vector x(cols);
  Rng rng(24);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatVec(a, x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_MatVec)->Args({2048, 64})->Args({10000, 14});

// The fused matvec + weighted-reduction gradient of the exact logistic
// objective (NoPrivacy/DPME/FP training inner loop).
void BM_LogisticGradient(benchmark::State& state) {
  const auto ds = RandomDataset(static_cast<size_t>(state.range(0)),
                                static_cast<size_t>(state.range(1)), true, 25);
  const opt::LogisticObjective objective(ds.x, ds.y);
  linalg::Vector omega(ds.dim());
  Rng rng(26);
  for (auto& v : omega) v = rng.Uniform(-0.5, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(objective.Gradient(omega));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogisticGradient)->Args({20000, 14});

void BM_JacobiEigen(benchmark::State& state) {
  const auto spd = RandomSpd(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::EigenSym(spd));
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(4)->Arg(13)->Arg(32);

void BM_LaplaceSampling(benchmark::State& state) {
  Rng rng(4);
  const auto mech = dp::LaplaceMechanism::Create(0.8, 392.0).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Perturb(0.0, rng));
  }
}
BENCHMARK(BM_LaplaceSampling);

void BM_BuildLinearObjective(benchmark::State& state) {
  const auto ds =
      RandomDataset(static_cast<size_t>(state.range(0)), 13, false, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildLinearObjective(ds.x, ds.y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildLinearObjective)->Arg(10000)->Arg(50000);

// The one-off cost of the fold cache: one compensated pass over all tuples.
// d=14 is the fig7 default dimensionality (eval::BenchConfig).
void BM_ObjectiveAccumulatorBuild(benchmark::State& state) {
  const auto ds = RandomDataset(static_cast<size_t>(state.range(0)),
                                static_cast<size_t>(state.range(1)), false, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ObjectiveAccumulator::Build(
        ds, core::ObjectiveKind::kLinear));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObjectiveAccumulatorBuild)->Args({10000, 14})->Args({50000, 14});

// The per-fold cost after caching: global-sum-minus-test-slice touches only
// the held-out n/k tuples. Compare against BM_BuildLinearObjective at the
// same n — the direct path re-sums the other (k−1)/k·n tuples per fold.
void BM_TrainObjectiveForFold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto ds = RandomDataset(n, 13, false, 5);
  const auto acc =
      core::ObjectiveAccumulator::Build(ds, core::ObjectiveKind::kLinear);
  Rng rng(12);
  const auto splits = data::KFoldSplits(n, 5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.TrainObjectiveForFold(splits[0].test));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrainObjectiveForFold)->Arg(10000)->Arg(50000);

void BM_FmLinearFit(benchmark::State& state) {
  const auto ds =
      RandomDataset(static_cast<size_t>(state.range(0)), 13, false, 6);
  core::FmOptions options;
  options.epsilon = 0.8;
  core::FmLinearRegression fm(options);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.Fit(ds, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmLinearFit)->Arg(10000)->Arg(50000);

void BM_FmLogisticFit(benchmark::State& state) {
  const auto ds =
      RandomDataset(static_cast<size_t>(state.range(0)), 13, true, 8);
  core::FmOptions options;
  options.epsilon = 0.8;
  core::FmLogisticRegression fm(options);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fm.Fit(ds, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FmLogisticFit)->Arg(10000)->Arg(50000);

void BM_NewtonLogistic(benchmark::State& state) {
  const auto ds =
      RandomDataset(static_cast<size_t>(state.range(0)), 13, true, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::FitLogisticNewton(ds.x, ds.y));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NewtonLogistic)->Arg(10000);

void BM_SpectralTrim(benchmark::State& state) {
  Rng rng(11);
  opt::QuadraticModel q;
  const size_t d = static_cast<size_t>(state.range(0));
  q.m = linalg::Matrix(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      q.m(i, j) = rng.Uniform(-1.0, 1.0);
      q.m(j, i) = q.m(i, j);
    }
  }
  q.alpha = linalg::Vector(d, 1.0);
  for (auto _ : state) {
    size_t trimmed = 0;
    benchmark::DoNotOptimize(
        core::FunctionalMechanism::SpectralTrimMinimize(q, &trimmed));
  }
}
BENCHMARK(BM_SpectralTrim)->Arg(13)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
