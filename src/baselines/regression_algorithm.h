#ifndef FM_BASELINES_REGRESSION_ALGORITHM_H_
#define FM_BASELINES_REGRESSION_ALGORITHM_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/normalizer.h"
#include "linalg/vector.h"
#include "opt/quadratic_model.h"

namespace fm::baselines {

/// A trained regression model plus its privacy accounting.
struct TrainedModel {
  /// The released parameter vector ω.
  linalg::Vector omega;

  /// Total ε spent training (0 for the non-private algorithms).
  double epsilon_spent = 0.0;
};

/// Uniform interface over every algorithm in the paper's §7 evaluation
/// (FM, DPME, FP, NoPrivacy, Truncated) plus the objective-perturbation
/// extension, so the harness can sweep them interchangeably.
///
/// All algorithms release a parameter vector ω; prediction is xᵀω for the
/// linear task and σ(xᵀω) > 0.5 for the logistic task (eval/metrics.h).
class RegressionAlgorithm {
 public:
  virtual ~RegressionAlgorithm() = default;

  /// Display name used in benchmark tables ("FM", "DPME", ...).
  virtual std::string name() const = 0;

  /// True when training satisfies ε-differential privacy.
  virtual bool is_private() const = 0;

  /// Trains on `train` (which satisfies the §3 normalization contract) for
  /// the given task, drawing any randomness from `rng`.
  virtual Result<TrainedModel> Train(const data::RegressionDataset& train,
                                     data::TaskKind task, Rng& rng) const = 0;

  /// True when, for `task`, Train consumes the training tuples only through
  /// the fold-decomposable quadratic objective (the §4.2 sum or the §5.3
  /// surrogate): Train is then TrainFromObjective on
  /// core::CheckedObjective(train, ObjectiveKindForTask(task)), so
  /// eval::CrossValidate may pass a fold objective summed from its fold bins
  /// instead and get the same bits.
  virtual bool SupportsObjectiveCache(data::TaskKind task) const {
    (void)task;
    return false;
  }

  /// Trains from a pre-built training objective (see SupportsObjectiveCache;
  /// the objective kind is core::ObjectiveKindForTask(task)), drawing the
  /// same randomness as the equivalent Train call. Default: Unimplemented.
  virtual Result<TrainedModel> TrainFromObjective(
      const opt::QuadraticModel& objective, data::TaskKind task,
      Rng& rng) const {
    (void)objective;
    (void)task;
    (void)rng;
    return Status::Unimplemented(name() +
                                 " cannot train from a cached objective");
  }
};

}  // namespace fm::baselines

#endif  // FM_BASELINES_REGRESSION_ALGORITHM_H_
