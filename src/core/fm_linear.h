#ifndef FM_CORE_FM_LINEAR_H_
#define FM_CORE_FM_LINEAR_H_

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/functional_mechanism.h"
#include "data/dataset.h"
#include "linalg/vector.h"

namespace fm::core {

/// ε-differentially private linear regression via the Functional Mechanism
/// (§4.2): the exact quadratic objective Σ(y_i − x_iᵀω)² is perturbed with
/// Lap(Δ/ε) coefficient noise, Δ = 2(d+1)², and the noisy quadratic is
/// minimized with §6 post-processing.
///
///   FmLinearRegression model(options);
///   FM_ASSIGN_OR_RETURN(FmFitReport fit, model.Fit(train, rng));
///   double y_hat = FmLinearRegression::Predict(fit.omega, x);
///
/// The dataset must satisfy the §3 contract (‖x_i‖ ≤ 1, y ∈ [−1,1]) — that
/// is what makes Δ valid; Fit validates it.
class FmLinearRegression {
 public:
  explicit FmLinearRegression(const FmOptions& options) : options_(options) {}

  /// Runs the mechanism on `train` using randomness from `rng`: FitObjective
  /// on core::CheckedObjective(train, kLinear). The sum is exact, so this
  /// returns the same bits as FitObjective on any exact derivation of the
  /// same tuples' objective (a cross-validation fold summed from fold bins,
  /// say). Fails when the dataset is empty, violates the §3 contract, or
  /// ε ≤ 0.
  Result<FmFitReport> Fit(const data::RegressionDataset& train,
                          Rng& rng) const;

  /// Runs the mechanism on a pre-built §4.2 objective (e.g. a
  /// cross-validation fold's, summed from fold bins) instead of re-summing
  /// the training tuples. The caller is responsible for the
  /// objective having been built from contract-satisfying data — Δ = 2(d+1)²
  /// is only valid under ‖x‖ ≤ 1, y ∈ [−1, 1].
  Result<FmFitReport> FitObjective(const opt::QuadraticModel& objective,
                                   Rng& rng) const;

  /// ŷ = xᵀω.
  static double Predict(const linalg::Vector& omega, const linalg::Vector& x);

  const FmOptions& options() const { return options_; }

 private:
  FmOptions options_;
};

}  // namespace fm::core

#endif  // FM_CORE_FM_LINEAR_H_
