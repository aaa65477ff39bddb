#ifndef FM_BENCH_BENCH_UTIL_H_
#define FM_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "data/normalizer.h"
#include "eval/experiment.h"

namespace fm::bench {

/// Shared state for the figure benches: the resolved FM_BENCH_* config and
/// the two generated census datasets.
struct BenchContext {
  eval::BenchConfig config;
  std::vector<eval::DatasetBundle> bundles;
};

/// Loads the config from the environment and generates both datasets.
/// Exits 1 (with a message) on failure — an invalid FM_BENCH_SCALE or
/// FM_BENCH_REPEATS, say; bench binaries have no caller to propagate a
/// Status to.
BenchContext LoadContext();

/// Prints the standard bench banner: scale, repeats, seed, dataset sizes.
void PrintBanner(const std::string& bench_name, const BenchContext& ctx);

/// The sweep drivers below evaluate their points concurrently on the global
/// exec::ThreadPool (FM_THREADS) and print rows serially in x order, so the
/// accuracy tables are byte-identical for every thread count; the timing
/// tables of figs 7–9 report per-fold thread-CPU seconds — stable across
/// thread counts but, being measured time, still run-dependent. Each point's
/// CV run derives its fold objectives from a cached dataset-global sum.

/// Figure 4: accuracy vs dimensionality at the default ε and sampling rate.
/// `figure` is the per-dataset label prefix, e.g. "fig4a" for US-Linear.
void AccuracyVsDimensionality(const BenchContext& ctx, data::TaskKind task);

/// Figure 5: accuracy vs sampling rate at the default ε and dimensionality.
void AccuracyVsCardinality(const BenchContext& ctx, data::TaskKind task);

/// Figure 6: accuracy vs privacy budget ε at the defaults.
void AccuracyVsEpsilon(const BenchContext& ctx, data::TaskKind task);

/// Figures 7–9: per-fold training time against the chosen axis; `axis` is
/// one of "dimensionality", "rate", "epsilon".
void TimeSweep(const BenchContext& ctx, data::TaskKind task,
               const std::string& axis);

/// The sampling-rate ticks shown on the paper's x-axes (a subset of the
/// full Table 2 grid; set FM_BENCH_FULL_GRID=1 for all ten values).
std::vector<double> BenchSamplingRates();

}  // namespace fm::bench

#endif  // FM_BENCH_BENCH_UTIL_H_
