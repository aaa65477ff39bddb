#ifndef FM_OPT_QUADRATIC_MODEL_H_
#define FM_OPT_QUADRATIC_MODEL_H_

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::opt {

/// The quadratic canonical form f(ω) = ωᵀ M ω + αᵀ ω + β with symmetric M —
/// the currency between the Functional Mechanism, its post-processors and
/// the solvers (§6.1's "matrix representation of the quadratic polynomial").
struct QuadraticModel {
  linalg::Matrix m;      ///< d × d symmetric quadratic coefficient matrix.
  linalg::Vector alpha;  ///< d linear coefficients.
  double beta = 0.0;     ///< constant term.

  /// Dimensionality d.
  size_t dim() const { return alpha.size(); }

  /// f(ω).
  double Evaluate(const linalg::Vector& omega) const;

  /// ∇f(ω) = 2 M ω + α (M symmetric).
  linalg::Vector Gradient(const linalg::Vector& omega) const;

  /// Solves ∇f = 0, i.e. 2 M ω = −α, via Cholesky. Fails with
  /// kNumericalError when M is not positive definite (unbounded or flat
  /// objective) — callers then apply §6 post-processing.
  Result<linalg::Vector> Minimize() const;
};

}  // namespace fm::opt

#endif  // FM_OPT_QUADRATIC_MODEL_H_
