#ifndef FM_CORE_TAYLOR_H_
#define FM_CORE_TAYLOR_H_

#include <cstddef>

#include "data/dataset.h"
#include "opt/quadratic_model.h"

namespace fm::core {

/// §5's polynomial-approximation machinery for logistic regression.
///
/// The logistic cost decomposes as f = f₁(g₁) + f₂(g₂) with
/// f₁(z) = log(1+eᶻ), g₁ = x_iᵀω, f₂(z) = z, g₂ = y_i·x_iᵀω.
/// Truncating f₁'s Maclaurin series at degree 2 (Equation 10) gives the
/// finite-degree surrogate that Algorithm 2 feeds into Algorithm 1.

/// f₁(0) = log 2.
double LogisticF1Value0();

/// f₁′(0) = 1/2.
double LogisticF1Derivative0();

/// f₁″(0) = 1/4.
double LogisticF1SecondDerivative0();

/// f₁‴(z) = (eᶻ − e²ᶻ)/(1+eᶻ)³ — used by tests to verify Lemma 4's remainder
/// interval numerically.
double LogisticF1ThirdDerivative(double z);

/// §5.2's data-independent bound on the average approximation error:
/// (e² − e) / (6 (1+e)³) ≈ 0.015.
double LogisticTaylorErrorBound();

/// §8 future-work extension: a degree-2 Chebyshev (L∞-oriented) polynomial
/// approximation of f₁(z) = log(1+eᶻ) on [−radius, radius], as an
/// alternative analytical tool to the Maclaurin truncation. The fitted
/// coefficients are data-independent constants, so Algorithm 1's privacy
/// analysis carries over with Δ = 2(|a₁|·d + |a₂|·d² + d) (the same
/// bounding style as §5.3).
struct ChebyshevLogisticCoefficients {
  double a0 = 0.0;  ///< constant term
  double a1 = 0.0;  ///< coefficient of z
  double a2 = 0.0;  ///< coefficient of z²
  double radius = 0.0;
  /// max |f₁(z) − (a0 + a1 z + a2 z²)| over [−radius, radius], evaluated on
  /// a dense grid.
  double max_error = 0.0;
};

/// Fits the degree-2 Chebyshev approximation on [−radius, radius]
/// (numerically, via the Chebyshev-series projection; radius must be > 0).
ChebyshevLogisticCoefficients FitChebyshevLogistic(double radius);

/// Builds the Chebyshev analogue of the §5.3 surrogate,
///   f̌_D(ω) = Σ_i [a0 + a1 x_iᵀω + a2 (x_iᵀω)²] − (Σ_i y_i x_i)ᵀ ω,
/// as an exact core::ExactObjectiveSum rounded once, like every other
/// objective. `train` must satisfy the logistic §3 contract (checked;
/// aborts otherwise), and so must the coefficients' weights
/// (ExactObjectiveSum::AddTuples).
opt::QuadraticModel BuildChebyshevLogisticObjective(
    const data::RegressionDataset& train,
    const ChebyshevLogisticCoefficients& coefficients);

/// Δ for the Chebyshev surrogate: 2(|a₁|·d + |a₂|·d² + d).
double ChebyshevLogisticSensitivity(
    size_t d, const ChebyshevLogisticCoefficients& coefficients);

}  // namespace fm::core

#endif  // FM_CORE_TAYLOR_H_
