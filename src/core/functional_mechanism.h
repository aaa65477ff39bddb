#ifndef FM_CORE_FUNCTIONAL_MECHANISM_H_
#define FM_CORE_FUNCTIONAL_MECHANISM_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/monomial.h"
#include "linalg/vector.h"
#include "opt/quadratic_model.h"

namespace fm::core {

/// §6 strategy for keeping the noisy objective bounded.
enum class PostProcessing {
  /// No remedy: FitQuadratic fails when the noisy M is not PD.
  kNone,
  /// Lemma 5: rerun the mechanism until the objective is bounded. The whole
  /// procedure is (2ε)-DP, which the fit report surfaces as epsilon_spent.
  kResample,
  /// §6.1: M* ← M* + λI with λ = multiplier × stddev of the Laplace noise.
  /// Fails when M*+λI is still not PD.
  kRegularize,
  /// §6.1 + §6.2: regularize, then delete any remaining non-positive
  /// eigenvalues and minimize in the reduced eigenspace. Never fails.
  kRegularizeAndTrim,
  /// Noise-scale spectral thresholding — this library's extension of §6.2
  /// and the default. Eigendirections of the noisy M* whose curvature is
  /// below the injected noise's standard deviation (√2·Δ/ε) are statistically
  /// indistinguishable from pure noise; keeping them either unbounds the
  /// objective (≤ 0) or produces wildly ill-conditioned solutions (barely
  /// positive). kAdaptive trims every eigenvalue ≤ √2·Δ/ε and minimizes in
  /// the retained subspace, unbiased. When the data's signal dominates the
  /// noise (the paper's full-cardinality regime) nothing is trimmed and the
  /// result equals the exact noisy minimizer; under heavy noise it degrades
  /// gracefully to the zero model. Never fails. The paper's always-on
  /// λ = 4·stddev pipeline remains available as kRegularizeAndTrim and is
  /// compared head-to-head in bench/ablation_postprocessing.
  kAdaptive,
};

/// Returns a short lower-case name ("none", "resample", ...).
const char* PostProcessingToString(PostProcessing p);

/// Configuration of one Functional Mechanism run.
struct FmOptions {
  /// Privacy budget ε of one Algorithm-1 invocation. Must be positive.
  double epsilon = 0.8;

  /// §6 remedy. kAdaptive regularizes/trims only when the noisy objective is
  /// actually unbounded; kRegularizeAndTrim is the paper's always-on §6.1
  /// pipeline.
  PostProcessing post_processing = PostProcessing::kAdaptive;

  /// λ = regularization_multiplier × √2 · Δ/ε. The paper: "a good choice of
  /// λ equals 4 times standard deviation of the Laplace noise".
  double regularization_multiplier = 4.0;

  /// Safety valve for kResample.
  int max_resample_attempts = 256;
};

/// Outcome of a Functional Mechanism fit, including the §6 diagnostics.
struct FmFitReport {
  /// The released model parameter ω̄ = argmin f̄_D(ω).
  linalg::Vector omega;

  /// The L1 sensitivity Δ used (Algorithm 1, line 1).
  double delta = 0.0;

  /// The Laplace scale Δ/ε applied to every coefficient.
  double laplace_scale = 0.0;

  /// Total privacy cost: ε, or 2ε when resampling was used (Lemma 5).
  double epsilon_spent = 0.0;

  /// λ actually added to the diagonal (0 when not regularizing).
  double lambda = 0.0;

  /// Number of noisy-objective draws (1 unless kResample).
  int attempts = 0;

  /// Number of non-positive eigenvalues removed by spectral trimming.
  size_t trimmed_eigenvalues = 0;

  /// Whether the returned ω came from the trimmed eigenspace.
  bool used_spectral_trimming = false;
};

/// The Functional Mechanism (Algorithm 1) specialized to quadratic
/// objectives, plus the generic polynomial API and the §6 post-processors.
///
/// Typical use goes through FmLinearRegression / FmLogisticRegression; this
/// class is the reusable engine for any optimization-based analysis whose
/// (possibly truncated) objective is a finite polynomial:
///
///   FM_ASSIGN_OR_RETURN(opt::QuadraticModel objective,
///       CheckedObjective(train, ObjectiveKind::kLinear));
///   double delta = LinearRegressionSensitivity(train.dim());
///   FM_ASSIGN_OR_RETURN(FmFitReport fit,
///       FunctionalMechanism::FitQuadratic(objective, delta, options, rng));
class FunctionalMechanism {
 public:
  /// Perturbs a quadratic objective per Algorithm 1 lines 2–6: i.i.d.
  /// Lap(Δ/ε) noise on β, on every entry of α, and on the upper triangle of
  /// M mirrored to keep symmetry (§6.1). Pure mechanism — no post-processing.
  static Result<opt::QuadraticModel> PerturbQuadratic(
      const opt::QuadraticModel& objective, double delta, double epsilon,
      Rng& rng);

  /// Perturbs a generic finite-degree polynomial objective (Algorithm 1
  /// lines 2–6) by adding Lap(Δ/ε) noise to every monomial coefficient.
  static Result<PolynomialObjective> PerturbPolynomial(
      const PolynomialObjective& objective, double delta, double epsilon,
      Rng& rng);

  /// Full Algorithm 1 (+ §6 remedies per `options`): perturb `objective`
  /// with sensitivity `delta`, post-process, and minimize. The caller
  /// supplies Δ from its own sensitivity analysis (Lemma 1); the regression
  /// front-ends use LinearRegressionSensitivity / LogisticRegressionSensitivity.
  static Result<FmFitReport> FitQuadratic(const opt::QuadraticModel& objective,
                                          double delta,
                                          const FmOptions& options, Rng& rng);

  /// Options for FitPolynomial (degree ≥ 3 objectives).
  struct PolynomialFitOptions {
    FmOptions base;
    /// The minimizer is searched within ‖ω‖₂ ≤ domain_radius. A compact
    /// domain guarantees the noisy polynomial has a minimizer even when it
    /// is unbounded below on R^d (the §4 failure mode for general noisy
    /// functions), and matches the regression setting where meaningful
    /// parameters are bounded.
    double domain_radius = 1.0;
    /// Projected-gradient restarts (the noisy polynomial may be nonconvex).
    int restarts = 4;
    int max_iterations = 2000;
  };

  /// Full Algorithm 1 for an arbitrary finite-degree polynomial objective:
  /// perturbs every monomial coefficient with Lap(Δ/ε) and minimizes the
  /// noisy polynomial. Degree ≤ 2 inputs take the exact quadratic path with
  /// the §6 post-processing from options.base; higher degrees are minimized
  /// by multi-start projected gradient descent over ‖ω‖ ≤ domain_radius.
  static Result<FmFitReport> FitPolynomial(
      const PolynomialObjective& objective, double delta,
      const PolynomialFitOptions& options, Rng& rng);

  /// §6.2 spectral trimming: eigendecomposes M, drops the eigenvalues at
  /// or below `floor` (the non-positive ones by default; kAdaptive passes
  /// the noise stddev), minimizes g(V) = VᵀΛ′V + (Q′α)ᵀV + β over V = Q′ω,
  /// and returns the minimum-norm ω with Q′ω = V. `trimmed_count` receives
  /// the number of deleted eigenvalues. When every eigenvalue is dropped
  /// the zero vector is returned (the entire quadratic signal was noise).
  static Result<linalg::Vector> SpectralTrimMinimize(
      const opt::QuadraticModel& objective, size_t* trimmed_count,
      double floor = 0.0);

 private:
  FunctionalMechanism() = default;
};

/// Δ for linear regression (§4.2): 2(1 + 2d + d²) = 2(d+1)².
double LinearRegressionSensitivity(size_t d);

/// Δ for truncated logistic regression (§5.3): d²/4 + 3d.
double LogisticRegressionSensitivity(size_t d);

}  // namespace fm::core

#endif  // FM_CORE_FUNCTIONAL_MECHANISM_H_
