// Regenerates Figure 3: the §5.2 toy logistic objective on
// D = {(−0.5, 1), (0, 0), (1, 1)} against its degree-2 Taylor surrogate,
// printed as (ω, fD(ω), f̂D(ω)) series over ω ∈ [0, 2].
#include <cstdio>

#include "core/objective_accumulator.h"
#include "core/taylor.h"
#include "data/dataset.h"
#include "opt/logistic_loss.h"

int main() {
  using namespace fm;

  data::RegressionDataset db;
  db.x = linalg::Matrix(3, 1);
  db.x(0, 0) = -0.5;
  db.x(1, 0) = 0.0;
  db.x(2, 0) = 1.0;
  db.y = linalg::Vector{1.0, 0.0, 1.0};

  const opt::LogisticObjective exact(db.x, db.y);
  const opt::QuadraticModel truncated =
      core::ObjectiveAccumulator::Build(db,
                                        core::ObjectiveKind::kTruncatedLogistic)
          .Global();

  std::printf("# fig3 — §5.2 logistic objective vs degree-2 Taylor "
              "approximation\n");
  std::printf("# truncation error bound (§5.2): %.6f\n",
              core::LogisticTaylorErrorBound());
  std::printf("%8s %14s %14s %14s\n", "omega", "f_D(omega)", "fhat(omega)",
              "gap");
  double max_gap = 0.0;
  for (double w = 0.0; w <= 2.0 + 1e-9; w += 0.1) {
    const linalg::Vector omega{w};
    const double f = exact.Value(omega);
    const double fhat = truncated.Evaluate(omega);
    max_gap = std::max(max_gap, std::abs(f - fhat));
    std::printf("%8.2f %14.6f %14.6f %14.6f\n", w, f, fhat, f - fhat);
  }
  std::printf("# max |gap| over the plotted range: %.6f\n", max_gap);
  const auto wh = truncated.Minimize();
  if (wh.ok()) {
    std::printf("# argmin fhat = %.6f, exact objective there = %.6f\n",
                wh.ValueOrDie()[0], exact.Value(wh.ValueOrDie()));
  }
  return 0;
}
