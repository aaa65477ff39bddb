#include "core/fm_linear.h"

#include "core/objective_accumulator.h"

namespace fm::core {

Result<FmFitReport> FmLinearRegression::Fit(
    const data::RegressionDataset& train, Rng& rng) const {
  if (train.size() == 0) {
    return Status::FailedPrecondition("cannot fit on an empty dataset");
  }
  FM_ASSIGN_OR_RETURN(const opt::QuadraticModel objective,
                      CheckedObjective(train, ObjectiveKind::kLinear));
  return FitObjective(objective, rng);
}

Result<FmFitReport> FmLinearRegression::FitObjective(
    const opt::QuadraticModel& objective, Rng& rng) const {
  const double delta = LinearRegressionSensitivity(objective.dim());
  return FunctionalMechanism::FitQuadratic(objective, delta, options_, rng);
}

double FmLinearRegression::Predict(const linalg::Vector& omega,
                                   const linalg::Vector& x) {
  return linalg::Dot(omega, x);
}

}  // namespace fm::core
