#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/env_util.h"
#include "common/rng.h"
#include "eval/cross_validation.h"
#include "exec/parallel.h"

namespace fm::bench {

namespace {

// Quiet NaN marks a sweep cell whose algorithm failed.
constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();

std::string FigureLabel(const std::string& base, const std::string& dataset,
                        data::TaskKind task) {
  return base + ":" + dataset + "-" +
         (task == data::TaskKind::kLinear ? "Linear" : "Logistic");
}

// Runs every §7 algorithm on `ds` through CV and returns per-algorithm
// errors (mean_error) or times (mean_train_seconds).
std::vector<double> SweepPoint(const data::RegressionDataset& ds,
                               data::TaskKind task, double epsilon,
                               const eval::BenchConfig& config, uint64_t salt,
                               bool want_time,
                               std::vector<std::string>* names) {
  const auto algorithms = eval::MakeAlgorithms(epsilon, task);
  std::vector<double> row;
  for (const auto& algorithm : algorithms) {
    if (names != nullptr) names->push_back(algorithm->name());
    eval::CvOptions cv;
    cv.folds = config.folds;
    cv.repeats = config.repeats;
    cv.seed = DeriveSeed(config.seed, salt);
    const auto result = eval::CrossValidate(*algorithm, ds, task, cv);
    if (!result.ok()) {
      row.push_back(kFailed);
      continue;
    }
    row.push_back(want_time ? result.ValueOrDie().mean_train_seconds
                            : result.ValueOrDie().mean_error);
  }
  return row;
}

// One computed cell of a sweep table. Points are evaluated concurrently
// (each point is a deterministic function of its own derived seeds) and
// printed serially afterwards, in x order, so table bytes are identical for
// every FM_THREADS value (modulo the timing columns of figs 7–9, which
// report measured per-fold thread-CPU seconds).
struct SweepRow {
  bool ok = false;
  double x = 0.0;
  std::vector<std::string> names;
  std::vector<double> row;
};

void PrintSweep(const std::string& figure, const std::string& x_label,
                const std::vector<SweepRow>& rows) {
  bool header_printed = false;
  for (const auto& row : rows) {
    if (!row.ok) continue;
    if (!header_printed) {
      eval::PrintTableHeader(figure, x_label, row.names);
      header_printed = true;
    }
    eval::PrintTableRow(figure, row.x, row.row);
  }
}

}  // namespace

BenchContext LoadContext() {
  BenchContext ctx;
  auto config = eval::BenchConfig::FromEnv();
  if (!config.ok()) {
    std::fprintf(stderr, "invalid benchmark settings: %s\n",
                 config.status().ToString().c_str());
    std::exit(1);
  }
  ctx.config = std::move(config).ValueOrDie();
  auto bundles = eval::LoadCensusDatasets(ctx.config.scale, ctx.config.seed);
  if (!bundles.ok()) {
    std::fprintf(stderr, "failed to generate census data: %s\n",
                 bundles.status().ToString().c_str());
    std::exit(1);
  }
  ctx.bundles = std::move(bundles).ValueOrDie();
  return ctx;
}

void PrintBanner(const std::string& bench_name, const BenchContext& ctx) {
  std::printf("# %s — Functional Mechanism reproduction\n", bench_name.c_str());
  // The fold-objective cache state matters for reading the figs 7–9 timing
  // columns (FM/Truncated/NoPrivacy-linear per-fold times drop when on), so
  // the banner records the one the sweeps run with.
  std::printf("# scale=%.3g repeats=%zu folds=%zu seed=%llu cv_cache=%s",
              ctx.config.scale, ctx.config.repeats, ctx.config.folds,
              static_cast<unsigned long long>(ctx.config.seed),
              eval::CvOptions{}.use_objective_cache ? "on" : "off");
  for (const auto& bundle : ctx.bundles) {
    std::printf("  %s=%zu rows", bundle.name.c_str(),
                bundle.table.num_rows());
  }
  std::printf("\n");
}

std::vector<double> BenchSamplingRates() {
  if (GetEnvInt64("FM_BENCH_FULL_GRID", 0) != 0) {
    return eval::ParameterGrid::SamplingRates();
  }
  // The six ticks the paper's Figure 5/8 x-axes label.
  return {0.1, 0.3, 0.5, 0.6, 0.8, 1.0};
}

void AccuracyVsDimensionality(const BenchContext& ctx, data::TaskKind task) {
  const char* base = task == data::TaskKind::kLinear ? "fig4-lin" : "fig4-log";
  const auto& dims_grid = eval::ParameterGrid::Dimensionalities();
  for (const auto& bundle : ctx.bundles) {
    const std::string figure = FigureLabel(base, bundle.name, task);
    const auto rows = exec::ParallelMap(dims_grid.size(), [&](size_t i) {
      SweepRow out;
      const int dims = dims_grid[i];
      out.x = dims;
      auto ds = eval::PrepareTask(bundle.table, dims, task);
      if (!ds.ok()) return out;
      Rng sample_rng(DeriveSeed(ctx.config.seed, 7000 + dims));
      const auto sampled = ds.ValueOrDie().Sample(
          eval::ParameterGrid::kDefaultSamplingRate, sample_rng);
      out.row = SweepPoint(sampled, task, eval::ParameterGrid::kDefaultEpsilon,
                           ctx.config, i, /*want_time=*/false, &out.names);
      out.ok = true;
      return out;
    });
    PrintSweep(figure, "dims", rows);
  }
}

void AccuracyVsCardinality(const BenchContext& ctx, data::TaskKind task) {
  const char* base = task == data::TaskKind::kLinear ? "fig5-lin" : "fig5-log";
  const auto rates = BenchSamplingRates();
  for (const auto& bundle : ctx.bundles) {
    const std::string figure = FigureLabel(base, bundle.name, task);
    auto ds = eval::PrepareTask(bundle.table,
                                eval::ParameterGrid::kDefaultDimensionality,
                                task);
    if (!ds.ok()) continue;
    const auto rows = exec::ParallelMap(rates.size(), [&](size_t i) {
      SweepRow out;
      const double rate = rates[i];
      out.x = rate;
      Rng sample_rng(
          DeriveSeed(ctx.config.seed, 8000 + static_cast<uint64_t>(rate * 100)));
      const auto sampled = ds.ValueOrDie().Sample(rate, sample_rng);
      out.row = SweepPoint(sampled, task, eval::ParameterGrid::kDefaultEpsilon,
                           ctx.config, 100 + i, /*want_time=*/false,
                           &out.names);
      out.ok = true;
      return out;
    });
    PrintSweep(figure, "rate", rows);
  }
}

void AccuracyVsEpsilon(const BenchContext& ctx, data::TaskKind task) {
  const char* base = task == data::TaskKind::kLinear ? "fig6-lin" : "fig6-log";
  const auto& budgets = eval::ParameterGrid::PrivacyBudgets();
  for (const auto& bundle : ctx.bundles) {
    const std::string figure = FigureLabel(base, bundle.name, task);
    auto ds = eval::PrepareTask(bundle.table,
                                eval::ParameterGrid::kDefaultDimensionality,
                                task);
    if (!ds.ok()) continue;
    Rng sample_rng(DeriveSeed(ctx.config.seed, 9000));
    const auto sampled = ds.ValueOrDie().Sample(
        eval::ParameterGrid::kDefaultSamplingRate, sample_rng);
    const auto rows = exec::ParallelMap(budgets.size(), [&](size_t i) {
      SweepRow out;
      out.x = budgets[i];
      out.row = SweepPoint(sampled, task, budgets[i], ctx.config, 200 + i,
                           /*want_time=*/false, &out.names);
      out.ok = true;
      return out;
    });
    PrintSweep(figure, "epsilon", rows);
  }
}

void TimeSweep(const BenchContext& ctx, data::TaskKind task,
               const std::string& axis) {
  const char* fig = axis == "dimensionality" ? "fig7"
                    : axis == "rate"         ? "fig8"
                                             : "fig9";
  // Timing needs no repetition-heavy CV; one repeat of 5 folds averages five
  // trainings per point, matching the paper's per-run timing protocol.
  eval::BenchConfig timing_config = ctx.config;
  timing_config.repeats = 1;

  // Unlike the accuracy sweeps, timing points run serially; CrossValidate
  // still trains each point's folds in parallel (that is what speeds the
  // sweep up), and per-fold times are read from the training thread's CPU
  // clock, so sibling folds don't inflate each other's §7.4 numbers.
  for (const auto& bundle : ctx.bundles) {
    const std::string figure = FigureLabel(fig, bundle.name, task);
    bool header_printed = false;
    uint64_t salt = 300;

    auto run_point = [&](double x, const data::RegressionDataset& sampled) {
      std::vector<std::string> names;
      const auto row =
          SweepPoint(sampled, task, eval::ParameterGrid::kDefaultEpsilon,
                     timing_config, salt++, /*want_time=*/true, &names);
      if (!header_printed) {
        eval::PrintTableHeader(figure, "x=" + axis + " (sec)", names);
        header_printed = true;
      }
      eval::PrintTableRow(figure, x, row);
    };

    if (axis == "dimensionality") {
      for (int dims : eval::ParameterGrid::Dimensionalities()) {
        auto ds = eval::PrepareTask(bundle.table, dims, task);
        if (!ds.ok()) continue;
        Rng rng(DeriveSeed(ctx.config.seed, 7100 + dims));
        run_point(dims, ds.ValueOrDie().Sample(
                            eval::ParameterGrid::kDefaultSamplingRate, rng));
      }
    } else if (axis == "rate") {
      auto ds = eval::PrepareTask(
          bundle.table, eval::ParameterGrid::kDefaultDimensionality, task);
      if (!ds.ok()) continue;
      for (double rate : BenchSamplingRates()) {
        Rng rng(DeriveSeed(ctx.config.seed,
                           8100 + static_cast<uint64_t>(rate * 100)));
        run_point(rate, ds.ValueOrDie().Sample(rate, rng));
      }
    } else {
      auto ds = eval::PrepareTask(
          bundle.table, eval::ParameterGrid::kDefaultDimensionality, task);
      if (!ds.ok()) continue;
      Rng rng(DeriveSeed(ctx.config.seed, 9100));
      const auto sampled = ds.ValueOrDie().Sample(
          eval::ParameterGrid::kDefaultSamplingRate, rng);
      for (double epsilon : eval::ParameterGrid::PrivacyBudgets()) {
        std::vector<std::string> names;
        const auto row = SweepPoint(sampled, task, epsilon, timing_config,
                                    salt++, /*want_time=*/true, &names);
        if (!header_printed) {
          eval::PrintTableHeader(figure, "epsilon (sec)", names);
          header_printed = true;
        }
        eval::PrintTableRow(figure, epsilon, row);
      }
    }
  }
}

}  // namespace fm::bench
