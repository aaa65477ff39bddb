// Regenerates Figure 7: per-fold training time (seconds) vs dimensionality
// on the logistic task (the paper reports logistic only; linear is
// qualitatively similar — run the other figure benches for accuracy).
// The FM/Truncated columns time the fold-objective cache's
// global-sum-minus-test-fold derivation plus the mechanism.
#include "bench_util.h"

int main() {
  auto ctx = fm::bench::LoadContext();
  fm::bench::PrintBanner("fig7 computation time vs dimensionality", ctx);
  fm::bench::TimeSweep(ctx, fm::data::TaskKind::kLogistic, "dimensionality");
  return 0;
}
