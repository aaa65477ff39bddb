// Regenerates Figure 2: the §4.2 toy linear-regression objective
// fD(ω) = 2.06ω² − 2.34ω + 1.25 (three tuples, d = 1) and an FM-noisy
// version of it, printed as (ω, fD(ω), f̄D(ω)) series over ω ∈ [0, 1].
#include <cstdio>

#include "common/rng.h"
#include "core/functional_mechanism.h"
#include "core/objective_accumulator.h"
#include "data/dataset.h"

int main() {
  using namespace fm;

  // The paper's example database: (1, 0.4), (0.9, 0.3), (−0.5, −1).
  data::RegressionDataset db;
  db.x = linalg::Matrix(3, 1);
  db.x(0, 0) = 1.0;
  db.x(1, 0) = 0.9;
  db.x(2, 0) = -0.5;
  db.y = linalg::Vector{0.4, 0.3, -1.0};

  const opt::QuadraticModel objective =
      core::ObjectiveAccumulator::Build(db, core::ObjectiveKind::kLinear)
          .Global();
  std::printf("# fig2 — §4.2 worked example (linear objective + FM noise)\n");
  std::printf("# built objective: %.6gω² %+.6gω %+.6g (paper: 2.06ω² −2.34ω "
              "+1.25)\n",
              objective.m(0, 0), objective.alpha[0], objective.beta);
  std::printf("# optimum: ω* = %.6f (paper: 117/206 = %.6f)\n",
              objective.Minimize().ValueOrDie()[0], 117.0 / 206.0);

  const double delta = core::LinearRegressionSensitivity(1);  // 2(d+1)² = 8
  std::printf("# Δ = %.1f, ε = 0.8 → Lap scale %.1f\n", delta, delta / 0.8);

  Rng rng(20120827);
  const auto noisy =
      core::FunctionalMechanism::PerturbQuadratic(objective, delta, 0.8, rng)
          .ValueOrDie();
  std::printf("# one noisy draw: %.6gω² %+.6gω %+.6g\n", noisy.m(0, 0),
              noisy.alpha[0], noisy.beta);

  std::printf("%8s %14s %14s\n", "omega", "f_D(omega)", "noisy_f(omega)");
  for (double w = 0.0; w <= 1.0 + 1e-9; w += 0.05) {
    const linalg::Vector omega{w};
    std::printf("%8.2f %14.6f %14.6f\n", w, objective.Evaluate(omega),
                noisy.Evaluate(omega));
  }
  return 0;
}
