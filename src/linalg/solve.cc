#include "linalg/solve.h"

#include <cmath>

#include "linalg/eigen_sym.h"

namespace fm::linalg {

Result<Vector> SolveSymmetricPseudo(const Matrix& a, const Vector& b,
                                    double rcond) {
  FM_ASSIGN_OR_RETURN(SymmetricEigen eig, EigenSym(a));
  const size_t n = eig.eigenvalues.size();
  double max_abs = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_abs = std::max(max_abs, std::fabs(eig.eigenvalues[i]));
  }
  const double cutoff = rcond * max_abs;
  // x = Σ_k (q_kᵀ b / λ_k) q_k over the retained spectrum.
  Vector x(n);
  for (size_t k = 0; k < n; ++k) {
    const double lambda = eig.eigenvalues[k];
    if (std::fabs(lambda) <= cutoff) continue;
    const Vector qk = eig.eigenvectors.RowVector(k);
    x.Axpy(Dot(qk, b) / lambda, qk);
  }
  return x;
}

}  // namespace fm::linalg
