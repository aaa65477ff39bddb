// Regenerates Figure 8: per-fold training time (seconds) vs sampling rate
// on the logistic task. Timed under the fold-objective cache — see
// fig7_time_vs_dimensionality.cc.
#include "bench_util.h"

int main() {
  auto ctx = fm::bench::LoadContext();
  fm::bench::PrintBanner("fig8 computation time vs cardinality", ctx);
  fm::bench::TimeSweep(ctx, fm::data::TaskKind::kLogistic, "rate");
  return 0;
}
