#ifndef FM_CORE_FM_LOGISTIC_H_
#define FM_CORE_FM_LOGISTIC_H_

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/functional_mechanism.h"
#include "data/dataset.h"
#include "linalg/vector.h"

namespace fm::core {

/// ε-differentially private logistic regression via the Functional Mechanism
/// with Taylor truncation (Algorithm 2, §5.3): the exact objective
/// Σ[log(1+exp(x_iᵀω)) − y_i x_iᵀω] is replaced by its degree-2 Maclaurin
/// surrogate, which is then perturbed with Lap(Δ/ε) coefficient noise,
/// Δ = d²/4 + 3d, and minimized with §6 post-processing.
///
/// Labels must be in {0, 1} (Definition 2); Fit validates this along with
/// the ‖x‖ ≤ 1 contract.
class FmLogisticRegression {
 public:
  explicit FmLogisticRegression(const FmOptions& options)
      : options_(options) {}

  /// Runs Algorithm 2 on `train` using randomness from `rng`: FitObjective
  /// on core::CheckedObjective(train, kTruncatedLogistic), so the result
  /// matches FitObjective on any exact derivation of the same tuples'
  /// surrogate bit for bit. Fails when the dataset is empty, violates the
  /// §3 contract, or ε ≤ 0.
  Result<FmFitReport> Fit(const data::RegressionDataset& train,
                          Rng& rng) const;

  /// Runs the perturb-and-minimize tail of Algorithm 2 on a pre-built §5.3
  /// surrogate (e.g. a cross-validation fold's, summed from fold bins).
  /// The caller is responsible for the objective having been
  /// built from contract-satisfying {0,1}-labeled data — Δ = d²/4 + 3d
  /// depends on it.
  Result<FmFitReport> FitObjective(const opt::QuadraticModel& objective,
                                   Rng& rng) const;

  /// Pr[y = 1 | x] = exp(xᵀω)/(1 + exp(xᵀω)).
  static double PredictProbability(const linalg::Vector& omega,
                                   const linalg::Vector& x);

  /// Hard 0/1 classification at the paper's 0.5 probability threshold.
  static double Classify(const linalg::Vector& omega, const linalg::Vector& x);

  const FmOptions& options() const { return options_; }

 private:
  FmOptions options_;
};

}  // namespace fm::core

#endif  // FM_CORE_FM_LOGISTIC_H_
