#include "baselines/no_privacy.h"

#include "core/objective_accumulator.h"
#include "linalg/solve.h"
#include "opt/logistic_loss.h"
#include "opt/quadratic_model.h"

namespace fm::baselines {

namespace {

// Minimizes a quadratic objective exactly, falling back to the minimum-norm
// stationary point when the Hessian is singular (collinear features).
Result<linalg::Vector> MinimizeWithPseudoFallback(
    const opt::QuadraticModel& objective) {
  Result<linalg::Vector> direct = objective.Minimize();
  if (direct.ok()) return direct;
  linalg::Matrix two_m = objective.m;
  two_m *= 2.0;
  return linalg::SolveSymmetricPseudo(two_m, -objective.alpha);
}

// The exact objective of a non-empty `train` for `task`.
Result<opt::QuadraticModel> BuildObjective(
    const data::RegressionDataset& train, data::TaskKind task) {
  if (train.size() == 0) {
    return Status::FailedPrecondition("cannot train on an empty dataset");
  }
  return core::CheckedObjective(train, core::ObjectiveKindForTask(task));
}

}  // namespace

Result<TrainedModel> NoPrivacy::Train(const data::RegressionDataset& train,
                                      data::TaskKind task, Rng& rng) const {
  if (task == data::TaskKind::kLinear) {
    FM_ASSIGN_OR_RETURN(const opt::QuadraticModel objective,
                        BuildObjective(train, task));
    return TrainFromObjective(objective, task, rng);
  }
  if (train.size() == 0) {
    return Status::FailedPrecondition("cannot train on an empty dataset");
  }
  TrainedModel model;
  FM_ASSIGN_OR_RETURN(model.omega, opt::FitLogisticNewton(train.x, train.y));
  return model;
}

Result<TrainedModel> NoPrivacy::TrainFromObjective(
    const opt::QuadraticModel& objective, data::TaskKind task,
    Rng& rng) const {
  if (task != data::TaskKind::kLinear) {
    return RegressionAlgorithm::TrainFromObjective(objective, task, rng);
  }
  // Least squares is the minimizer of the §4.2 objective: the normal
  // equations, with the minimum-norm pseudo-inverse solution when the Gram
  // matrix is singular.
  TrainedModel model;
  FM_ASSIGN_OR_RETURN(model.omega, MinimizeWithPseudoFallback(objective));
  return model;
}

Result<TrainedModel> Truncated::Train(const data::RegressionDataset& train,
                                      data::TaskKind task, Rng& rng) const {
  FM_ASSIGN_OR_RETURN(const opt::QuadraticModel objective,
                      BuildObjective(train, task));
  return TrainFromObjective(objective, task, rng);
}

Result<TrainedModel> Truncated::TrainFromObjective(
    const opt::QuadraticModel& objective, data::TaskKind task, Rng& rng) const {
  (void)rng;  // deterministic
  (void)task;
  // Either task: minimize the objective (linear regression's is already a
  // finite polynomial, §4.2, so there Truncated == NoPrivacy). A singular
  // Gram matrix (collinear features) falls back to the minimum-norm
  // stationary point.
  TrainedModel model;
  FM_ASSIGN_OR_RETURN(model.omega, MinimizeWithPseudoFallback(objective));
  return model;
}

}  // namespace fm::baselines
