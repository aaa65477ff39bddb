#include "core/taylor.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "core/objective_accumulator.h"

namespace fm::core {

double LogisticF1Value0() { return std::log(2.0); }

double LogisticF1Derivative0() { return 0.5; }

double LogisticF1SecondDerivative0() { return 0.25; }

double LogisticF1ThirdDerivative(double z) {
  // (e^z - e^{2z}) / (1 + e^z)^3, evaluated stably via σ = σ(z):
  // f₁‴ = σ(1-σ)(1-2σ).
  double sigma;
  if (z >= 0.0) {
    const double e = std::exp(-z);
    sigma = 1.0 / (1.0 + e);
  } else {
    const double e = std::exp(z);
    sigma = e / (1.0 + e);
  }
  return sigma * (1.0 - sigma) * (1.0 - 2.0 * sigma);
}

double LogisticTaylorErrorBound() {
  const double e = std::exp(1.0);
  return (e * e - e) / (6.0 * std::pow(1.0 + e, 3.0));
}

ChebyshevLogisticCoefficients FitChebyshevLogistic(double radius) {
  FM_CHECK(radius > 0.0);
  // Chebyshev series projection: c_k = (2 − δ_{k0})/π ∫₀^π f(r·cosθ)
  // cos(kθ) dθ, integrated with the midpoint rule (smooth integrand).
  auto f1 = [](double z) {
    if (z > 35.0) return z;
    if (z < -35.0) return std::exp(z);
    return std::log1p(std::exp(z));
  };
  const int kSteps = 20000;
  double c[3] = {0.0, 0.0, 0.0};
  const double pi = std::acos(-1.0);
  for (int i = 0; i < kSteps; ++i) {
    const double theta = pi * (static_cast<double>(i) + 0.5) / kSteps;
    const double fz = f1(radius * std::cos(theta));
    c[0] += fz;
    c[1] += fz * std::cos(theta);
    c[2] += fz * std::cos(2.0 * theta);
  }
  c[0] *= 1.0 / kSteps;
  c[1] *= 2.0 / kSteps;
  c[2] *= 2.0 / kSteps;

  // Convert T₀, T₁(z/r), T₂(z/r) = 2(z/r)² − 1 to monomial coefficients.
  ChebyshevLogisticCoefficients out;
  out.radius = radius;
  out.a0 = c[0] - c[2];
  out.a1 = c[1] / radius;
  out.a2 = 2.0 * c[2] / (radius * radius);

  for (int i = 0; i <= 1000; ++i) {
    const double z = -radius + 2.0 * radius * i / 1000.0;
    const double approx = out.a0 + out.a1 * z + out.a2 * z * z;
    out.max_error = std::max(out.max_error, std::fabs(f1(z) - approx));
  }
  return out;
}

opt::QuadraticModel BuildChebyshevLogisticObjective(
    const data::RegressionDataset& train,
    const ChebyshevLogisticCoefficients& coefficients) {
  FM_CHECK(train.y.size() == train.size());
  std::vector<const double*> xs(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    xs[i] = train.x.Row(i);
    FM_CHECK(data::CheckNormalizationContract(xs[i], train.dim(), train.y[i],
                                              data::TaskKind::kLogistic)
                 .ok());
  }
  ObjectiveWeights weights;
  weights.m_scale = coefficients.a2;
  weights.alpha_offset = coefficients.a1;
  weights.alpha_label = -1.0;
  weights.beta_offset = coefficients.a0;
  ExactObjectiveSum sum(train.dim());
  sum.AddTuples(weights, xs.data(), train.y.raw(), train.size());
  return sum.Round();
}

double ChebyshevLogisticSensitivity(
    size_t d, const ChebyshevLogisticCoefficients& coefficients) {
  const double dd = static_cast<double>(d);
  return 2.0 * (std::fabs(coefficients.a1) * dd +
                std::fabs(coefficients.a2) * dd * dd + dd);
}

}  // namespace fm::core
