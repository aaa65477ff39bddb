// Regenerates Figure 9: per-fold training time (seconds) vs privacy budget
// on the logistic task. The paper's observation — ε affects neither problem
// size nor solver complexity, so the lines are flat — should reproduce.
// Timed under the fold-objective cache — see
// fig7_time_vs_dimensionality.cc.
#include "bench_util.h"

int main() {
  auto ctx = fm::bench::LoadContext();
  fm::bench::PrintBanner("fig9 computation time vs privacy budget", ctx);
  fm::bench::TimeSweep(ctx, fm::data::TaskKind::kLogistic, "epsilon");
  return 0;
}
