#include "core/functional_mechanism.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "dp/budget.h"
#include "dp/laplace_mechanism.h"
#include "linalg/eigen_sym.h"

namespace fm::core {

const char* PostProcessingToString(PostProcessing p) {
  switch (p) {
    case PostProcessing::kNone:
      return "none";
    case PostProcessing::kResample:
      return "resample";
    case PostProcessing::kRegularize:
      return "regularize";
    case PostProcessing::kRegularizeAndTrim:
      return "regularize+trim";
    case PostProcessing::kAdaptive:
      return "adaptive";
  }
  return "?";
}

Result<opt::QuadraticModel> FunctionalMechanism::PerturbQuadratic(
    const opt::QuadraticModel& objective, double delta, double epsilon,
    Rng& rng) {
  if (objective.m.rows() != objective.dim() ||
      objective.m.cols() != objective.dim()) {
    return Status::InvalidArgument("objective matrix/vector shape mismatch");
  }
  FM_ASSIGN_OR_RETURN(dp::LaplaceMechanism mech,
                      dp::LaplaceMechanism::Create(epsilon, delta));
  opt::QuadraticModel noisy;
  noisy.m = mech.PerturbSymmetric(objective.m, rng);
  noisy.alpha = mech.Perturb(objective.alpha, rng);
  noisy.beta = mech.Perturb(objective.beta, rng);
  return noisy;
}

Result<PolynomialObjective> FunctionalMechanism::PerturbPolynomial(
    const PolynomialObjective& objective, double delta, double epsilon,
    Rng& rng) {
  FM_ASSIGN_OR_RETURN(dp::LaplaceMechanism mech,
                      dp::LaplaceMechanism::Create(epsilon, delta));
  PolynomialObjective noisy(objective.dim());
  for (const auto& [monomial, coefficient] : objective.terms()) {
    noisy.AddTerm(monomial, mech.Perturb(coefficient, rng));
  }
  return noisy;
}

Result<linalg::Vector> FunctionalMechanism::SpectralTrimMinimize(
    const opt::QuadraticModel& objective, size_t* trimmed_count,
    double floor) {
  FM_ASSIGN_OR_RETURN(linalg::SymmetricEigen eig,
                      linalg::EigenSym(objective.m));
  const size_t d = objective.dim();

  // Minimize g(V) = Σ_k λ_k V_k² + Σ_k (q_kᵀα) V_k over the retained
  // (above-floor) components: V_k = −(q_kᵀα) / (2 λ_k); the minimum-norm
  // pre-image of Q′ω = V is ω = Q′ᵀ V (rows of Q orthonormal).
  linalg::Vector omega(d);
  size_t trimmed = 0;
  for (size_t k = 0; k < d; ++k) {
    const double lambda = eig.eigenvalues[k];
    if (!(lambda > floor)) {
      ++trimmed;
      continue;
    }
    const linalg::Vector qk = eig.eigenvectors.RowVector(k);
    const double vk = -Dot(qk, objective.alpha) / (2.0 * lambda);
    omega.Axpy(vk, qk);
  }
  if (trimmed_count != nullptr) *trimmed_count = trimmed;
  return omega;
}

Result<FmFitReport> FunctionalMechanism::FitQuadratic(
    const opt::QuadraticModel& objective, double delta,
    const FmOptions& options, Rng& rng) {
  FM_RETURN_NOT_OK(dp::ValidateEpsilon(options.epsilon));
  if (!(delta > 0.0) || !std::isfinite(delta)) {
    return Status::InvalidArgument("delta must be finite and positive");
  }

  FmFitReport report;
  report.delta = delta;
  report.laplace_scale = delta / options.epsilon;
  // Lemma 5: the repeat-until-bounded algorithm is (2ε)-DP as a whole, even
  // when the first draw is accepted — the acceptance test itself conditions
  // on the data.
  report.epsilon_spent =
      options.post_processing == PostProcessing::kResample
          ? 2.0 * options.epsilon
          : options.epsilon;

  // §6.1: λ = multiplier × (stddev of Lap(Δ/ε)) = multiplier·√2·Δ/ε. The
  // scale depends only on Δ and ε, never on the data, so adding it costs no
  // privacy.
  const double noise_stddev = report.laplace_scale * std::sqrt(2.0);
  const bool regularize =
      options.post_processing == PostProcessing::kRegularize ||
      options.post_processing == PostProcessing::kRegularizeAndTrim;
  const double lambda =
      regularize ? options.regularization_multiplier * noise_stddev : 0.0;

  const int max_attempts =
      options.post_processing == PostProcessing::kResample
          ? options.max_resample_attempts
          : 1;

  if (options.post_processing == PostProcessing::kAdaptive) {
    report.attempts = 1;
    FM_ASSIGN_OR_RETURN(
        opt::QuadraticModel noisy,
        PerturbQuadratic(objective, delta, options.epsilon, rng));
    // Eigenvalues at or below the per-coefficient noise stddev carry no
    // usable curvature signal; trimming them is post-processing of the
    // already-private (M*, α*, β*), so privacy is unaffected.
    FM_ASSIGN_OR_RETURN(
        report.omega,
        SpectralTrimMinimize(noisy, &report.trimmed_eigenvalues,
                             noise_stddev));
    report.used_spectral_trimming = report.trimmed_eigenvalues > 0;
    return report;
  }

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    report.attempts = attempt;
    FM_ASSIGN_OR_RETURN(
        opt::QuadraticModel noisy,
        PerturbQuadratic(objective, delta, options.epsilon, rng));
    if (lambda > 0.0) {
      noisy.m.AddToDiagonal(lambda);
      report.lambda = lambda;
    }

    Result<linalg::Vector> direct = noisy.Minimize();
    if (direct.ok()) {
      report.omega = std::move(direct).ValueOrDie();
      return report;
    }

    switch (options.post_processing) {
      case PostProcessing::kNone:
        return Status::NumericalError(
            "noisy objective is unbounded (M* not positive definite); "
            "select a §6 post-processing strategy");
      case PostProcessing::kRegularize:
        return Status::NumericalError(
            "noisy objective unbounded even after regularization; use "
            "kRegularizeAndTrim or kAdaptive");
      case PostProcessing::kResample:
        continue;  // redraw the noise
      case PostProcessing::kRegularizeAndTrim: {
        FM_ASSIGN_OR_RETURN(
            report.omega,
            SpectralTrimMinimize(noisy, &report.trimmed_eigenvalues));
        report.used_spectral_trimming = true;
        return report;
      }
      case PostProcessing::kAdaptive:
        break;  // handled above; unreachable
    }
  }
  // Resampling exhausted: even Lemma 5's budget cannot be honored here.
  return Status::NumericalError(
      "resampling did not produce a bounded objective within " +
      std::to_string(options.max_resample_attempts) + " attempts");
}

Result<FmFitReport> FunctionalMechanism::FitPolynomial(
    const PolynomialObjective& objective, double delta,
    const PolynomialFitOptions& options, Rng& rng) {
  if (objective.MaxDegree() <= 2) {
    FM_ASSIGN_OR_RETURN(opt::QuadraticModel quadratic,
                        objective.ToQuadraticModel());
    return FitQuadratic(quadratic, delta, options.base, rng);
  }
  if (!(options.domain_radius > 0.0)) {
    return Status::InvalidArgument("domain_radius must be positive");
  }
  FM_ASSIGN_OR_RETURN(
      PolynomialObjective noisy,
      PerturbPolynomial(objective, delta, options.base.epsilon, rng));

  FmFitReport report;
  report.delta = delta;
  report.laplace_scale = delta / options.base.epsilon;
  report.epsilon_spent = options.base.epsilon;
  report.attempts = 1;

  const size_t d = objective.dim();
  const double radius = options.domain_radius;
  auto project = [radius](linalg::Vector& w) {
    const double norm = w.Norm2();
    if (norm > radius) w *= radius / norm;
  };

  double best_value = std::numeric_limits<double>::infinity();
  linalg::Vector best(d);
  for (int start = 0; start < std::max(1, options.restarts); ++start) {
    linalg::Vector w(d);
    if (start > 0) {
      for (auto& v : w) v = rng.Uniform(-radius, radius);
      project(w);
    }
    double value = noisy.Evaluate(w);
    double step = 0.25 * radius;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      const linalg::Vector grad = noisy.Gradient(w);
      if (grad.NormInf() < 1e-10) break;
      bool advanced = false;
      double t = step;
      for (int bt = 0; bt < 40; ++bt) {
        linalg::Vector candidate = w;
        candidate.Axpy(-t, grad);
        project(candidate);
        const double cv = noisy.Evaluate(candidate);
        if (cv < value - 1e-12) {
          w = std::move(candidate);
          value = cv;
          step = t * 1.5;
          advanced = true;
          break;
        }
        t *= 0.5;
      }
      if (!advanced) break;  // projected stationary point
    }
    if (value < best_value) {
      best_value = value;
      best = w;
    }
  }
  report.omega = std::move(best);
  return report;
}

double LinearRegressionSensitivity(size_t d) {
  const double dd = static_cast<double>(d);
  return 2.0 * (1.0 + 2.0 * dd + dd * dd);
}

double LogisticRegressionSensitivity(size_t d) {
  const double dd = static_cast<double>(d);
  return dd * dd / 4.0 + 3.0 * dd;
}

}  // namespace fm::core
