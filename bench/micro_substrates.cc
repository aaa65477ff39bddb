// E15: google-benchmark micro-benchmarks for the substrate hot paths — the
// exact objective sum and the fold-bin pass, Cholesky, the symmetric
// eigendecomposition (Householder tridiagonalization plus implicit-shift
// QL), Laplace sampling, full FM fits and the Newton logistic solver.
//
// BM_ExactBatch is a twin: its `blocked` and `ref` instances time a
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

// AᵀA + n·I for a random n×n A.
linalg::Matrix RandomSpd(size_t n, uint64_t seed) {
  const linalg::Matrix a = RandomMatrix(n, n, seed);
  linalg::Matrix spd(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t l = 0; l < n; ++l) spd(j, l) += a(r, j) * a(r, l);
    }
  }
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

void BM_Cholesky(benchmark::State& state) {
  const auto spd = RandomSpd(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Cholesky::Compute(spd));
  }
}
// d=13 is the figures' dimensionality; d=50 is serve_churn's, the largest
// Cholesky any caller runs (perfbench's linalg.cholesky_us probe).
BENCHMARK(BM_Cholesky)->Arg(4)->Arg(13)->Arg(50);

// The exact per-tuple accumulation behind the store, the fold cache and
// every train: state.range(0) tuples of dimension state.range(1),
// kExactBatch at a time, into one set of chunk words per
// kExactChunkTuples tuples (as core::ExactObjectiveSum::AddTuples does).
// The words restart from zero every chunk, so both twins add into the
// same starting state.
void BM_ExactBatch(
    benchmark::State& state,
    decltype(&linalg::kernels::ExactTupleAccumulateBatch) kernel) {
  constexpr size_t kB = linalg::kernels::kExactBatch;
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
  std::vector<int64_t> hi(ncoef), lo(ncoef);
  for (auto _ : state) {
    for (size_t i = 0; i + kB <= n; i += kB) {
      if (i % linalg::kernels::kExactChunkTuples == 0) {
        std::fill(hi.begin(), hi.end(), 0);
        std::fill(lo.begin(), lo.end(), 0);
      }
      const double* xs[kB];
      for (size_t r = 0; r < kB; ++r) xs[r] = x.Row(i + r);
      kernel(hi.data(), lo.data(), xs, d, 0.125, &alpha_bias[i], &beta[i]);
    }
    benchmark::DoNotOptimize(hi.data());
    benchmark::DoNotOptimize(lo.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_CAPTURE(BM_ExactBatch, blocked,
                  &linalg::kernels::ExactTupleAccumulateBatch)
    ->Args({10000, 14})
    ->Args({4096, 50});
BENCHMARK_CAPTURE(BM_ExactBatch, ref,
                  &linalg::kernels::RefExactTupleAccumulateBatch)
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
BENCHMARK(BM_MatVec)->Args({10000, 14});

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

// The §6.2 trim's eigensolve at offline_cv's d (13) and serve_churn's (50).
void BM_EigenSym(benchmark::State& state) {
  const auto spd = RandomSpd(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::EigenSym(spd));
  }
}
BENCHMARK(BM_EigenSym)->Arg(4)->Arg(13)->Arg(50)->Arg(100);

void BM_LaplaceSampling(benchmark::State& state) {
  Rng rng(4);
  const auto mech = dp::LaplaceMechanism::Create(0.8, 392.0).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Perturb(0.0, rng));
  }
}
BENCHMARK(BM_LaplaceSampling);

// The one-off cost of the fold cache: one exact pass over all tuples.
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

// The checked pass eval::CrossValidate runs once per repeat, at offline_cv's
// shape: n = 60,000 logistic tuples (d = 13) into k = 5 fold bins. k = 1 is
// the one-bin pass behind Build and every direct fit, so the pair shows
// what sorting each chunk's rows into k bins costs.
void BM_ObjectiveBinPass(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const auto ds = RandomDataset(n, 13, true, 5);
  std::vector<size_t> fold_of_row;
  if (k > 1) {
    Rng rng(12);
    fold_of_row = data::KFoldPartition(n, k, rng).FoldOfEachRow();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SumObjectiveBins(
        ds, core::ObjectiveKind::kTruncatedLogistic, fold_of_row, k));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ObjectiveBinPass)->Args({60000, 1})->Args({60000, 5});

// The per-fold cost after caching: global-sum-minus-test-slice touches only
// the held-out n/k tuples. Compare against BM_ObjectiveAccumulatorBuild at
// the same n — the direct path re-sums the other (k−1)/k·n tuples per fold.
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
