#ifndef FM_BASELINES_NO_PRIVACY_H_
#define FM_BASELINES_NO_PRIVACY_H_

#include "baselines/regression_algorithm.h"

namespace fm::baselines {

/// The paper's NoPrivacy comparator: the exact, non-private optimum.
/// Linear task: ordinary least squares, as the minimizer of the exact §4.2
/// objective sum.
/// Logistic task: damped Newton on the exact logistic objective.
class NoPrivacy : public RegressionAlgorithm {
 public:
  NoPrivacy() = default;

  std::string name() const override { return "NoPrivacy"; }
  bool is_private() const override { return false; }

  Result<TrainedModel> Train(const data::RegressionDataset& train,
                             data::TaskKind task, Rng& rng) const override;

  /// Linear only: least squares is exactly the minimizer of the §4.2
  /// objective sum, so it can run off a cached fold objective. The logistic
  /// task (exact Newton) needs the raw tuples.
  bool SupportsObjectiveCache(data::TaskKind task) const override {
    return task == data::TaskKind::kLinear;
  }

  Result<TrainedModel> TrainFromObjective(const opt::QuadraticModel& objective,
                                          data::TaskKind task,
                                          Rng& rng) const override;
};

/// The paper's Truncated comparator: non-private minimization of the
/// degree-2 Taylor surrogate f̂_D (§5). Isolates the approximation error of
/// the truncation from the Laplace noise of the full mechanism. For the
/// linear task the objective is already polynomial, so Truncated coincides
/// with NoPrivacy (the paper omits it from the linear figures for the same
/// reason).
class Truncated : public RegressionAlgorithm {
 public:
  Truncated() = default;

  std::string name() const override { return "Truncated"; }
  bool is_private() const override { return false; }

  Result<TrainedModel> Train(const data::RegressionDataset& train,
                             data::TaskKind task, Rng& rng) const override;

  /// Both of Truncated's objectives (§4.2 exact, §5.3 surrogate) are
  /// per-tuple sums, so either task can run off a cached fold objective.
  bool SupportsObjectiveCache(data::TaskKind task) const override {
    (void)task;
    return true;
  }

  Result<TrainedModel> TrainFromObjective(const opt::QuadraticModel& objective,
                                          data::TaskKind task,
                                          Rng& rng) const override;
};

}  // namespace fm::baselines

#endif  // FM_BASELINES_NO_PRIVACY_H_
