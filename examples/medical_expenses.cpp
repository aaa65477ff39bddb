// The paper's Figure 1a scenario: a hospital wants to publish the linear
// relationship between patient age and annual medical expenses without
// revealing any individual patient's record.
//
// This example builds a synthetic patient registry, fits the relationship
// both exactly (what a non-private insider could compute) and with the
// Functional Mechanism across several privacy budgets, and shows how close
// the private slope stays to the true one.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/no_privacy.h"
#include "common/rng.h"
#include "core/fm_linear.h"
#include "data/normalizer.h"
#include "data/table.h"
#include "eval/metrics.h"

int main() {
  using namespace fm;

  // Synthetic patient registry: expenses rise with age, with heavy
  // individual variation (the private signal worth protecting).
  Rng data_rng(7);
  auto registry = data::Table::Create({"Age", "MedicalExpenses"}).ValueOrDie();
  const int kPatients = 20000;
  registry.ResizeRows(kPatients);
  for (int i = 0; i < kPatients; ++i) {
    const double age = std::clamp(data_rng.Gaussian(52.0, 17.0), 18.0, 95.0);
    const double expenses = std::max(
        0.0, -2000.0 + 160.0 * age + data_rng.Gaussian(0.0, 1800.0));
    registry.Set(i, 0, age);
    registry.Set(i, 1, expenses);
  }

  data::Normalizer::Options norm_options;
  norm_options.task = data::TaskKind::kLinear;
  auto normalizer =
      data::Normalizer::Fit(registry, {"Age"}, "MedicalExpenses", norm_options)
          .ValueOrDie();
  const auto dataset = normalizer.Apply(registry).ValueOrDie();

  Rng exact_rng(8);  // NoPrivacy draws nothing
  const auto exact = baselines::NoPrivacy()
                         .Train(dataset, data::TaskKind::kLinear, exact_rng)
                         .ValueOrDie()
                         .omega;
  std::printf("Figure-1a scenario: expenses ~ age, %d patients\n", kPatients);
  std::printf("%-10s %14s %14s %12s\n", "epsilon", "slope(norm.)",
              "vs exact", "test MSE");
  std::printf("%-10s %14.4f %14s %12.4f\n", "exact", exact[0], "-",
              eval::MeanSquaredError(exact, dataset));

  for (double epsilon : {0.1, 0.4, 0.8, 1.6, 3.2}) {
    core::FmOptions options;
    options.epsilon = epsilon;
    core::FmLinearRegression fm(options);
    // Average a few runs so the table is stable run-to-run.
    double slope = 0.0, mse = 0.0;
    const int kTrials = 5;
    for (int t = 0; t < kTrials; ++t) {
      Rng rng(DeriveSeed(100, static_cast<uint64_t>(epsilon * 1000) + t));
      const auto fit = fm.Fit(dataset, rng).ValueOrDie();
      slope += fit.omega[0] / kTrials;
      mse += eval::MeanSquaredError(fit.omega, dataset) / kTrials;
    }
    std::printf("%-10.2g %14.4f %14.4f %12.4f\n", epsilon, slope,
                slope - exact[0], mse);
  }
  std::printf("\nEach row is a model a hospital could publish: with ε ≥ 0.8\n"
              "the private slope is within a few percent of the exact fit,\n"
              "yet no single patient's record noticeably influences it.\n");
  return 0;
}
