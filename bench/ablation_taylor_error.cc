// Ablation E12: measured Taylor-truncation error against the §5.2 constant
// bound, across dimensionalities, on the synthetic census data. Reports
// (i) the average objective gap |f_D − f̂_D|/n at the surrogate's minimizer
// and (ii) Lemma 3's quantity (f_D(ω̂) − f_D(ω̃))/n, both of which the paper
// bounds by (e²−e)/(6(1+e)³) ≈ 0.015 per decomposition term.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/objective_accumulator.h"
#include "core/taylor.h"
#include "opt/logistic_loss.h"

int main() {
  using namespace fm;
  auto ctx = bench::LoadContext();
  bench::PrintBanner("ablation: Taylor truncation error (§5.2)", ctx);
  std::printf("%-10s %6s %16s %16s %14s\n", "dataset", "dims", "gap_at_min/n",
              "lemma3_lhs/n", "bound");

  for (const auto& bundle : ctx.bundles) {
    for (int dims : eval::ParameterGrid::Dimensionalities()) {
      auto ds = eval::PrepareTask(bundle.table, dims,
                                  data::TaskKind::kLogistic);
      if (!ds.ok()) continue;
      const auto& data = ds.ValueOrDie();
      const double n = static_cast<double>(data.size());

      const opt::QuadraticModel truncated =
          core::ObjectiveAccumulator::Build(
              data, core::ObjectiveKind::kTruncatedLogistic)
              .Global();
      const opt::LogisticObjective exact(data.x, data.y);

      auto omega_hat = truncated.Minimize();
      if (!omega_hat.ok()) continue;
      auto omega_tilde = opt::FitLogisticNewton(data.x, data.y);
      if (!omega_tilde.ok()) continue;

      const double gap = std::fabs(exact.Value(omega_hat.ValueOrDie()) -
                                   truncated.Evaluate(omega_hat.ValueOrDie())) /
                         n;
      const double lemma3 = (exact.Value(omega_hat.ValueOrDie()) -
                             exact.Value(omega_tilde.ValueOrDie())) /
                            n;
      std::printf("%-10s %6d %16.6f %16.6f %14.6f\n", bundle.name.c_str(),
                  dims, gap, lemma3, core::LogisticTaylorErrorBound());
    }
  }
  return 0;
}
