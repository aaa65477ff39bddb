#include "core/fm_logistic.h"

#include "core/objective_accumulator.h"
#include "opt/logistic_loss.h"

namespace fm::core {

Result<FmFitReport> FmLogisticRegression::Fit(
    const data::RegressionDataset& train, Rng& rng) const {
  if (train.size() == 0) {
    return Status::FailedPrecondition("cannot fit on an empty dataset");
  }
  FM_ASSIGN_OR_RETURN(
      const opt::QuadraticModel objective,
      CheckedObjective(train, ObjectiveKind::kTruncatedLogistic));
  return FitObjective(objective, rng);
}

Result<FmFitReport> FmLogisticRegression::FitObjective(
    const opt::QuadraticModel& objective, Rng& rng) const {
  const double delta = LogisticRegressionSensitivity(objective.dim());
  return FunctionalMechanism::FitQuadratic(objective, delta, options_, rng);
}

double FmLogisticRegression::PredictProbability(const linalg::Vector& omega,
                                                const linalg::Vector& x) {
  return opt::Sigmoid(linalg::Dot(omega, x));
}

double FmLogisticRegression::Classify(const linalg::Vector& omega,
                                      const linalg::Vector& x) {
  return PredictProbability(omega, x) > 0.5 ? 1.0 : 0.0;
}

}  // namespace fm::core
