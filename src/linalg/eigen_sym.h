#ifndef FM_LINALG_EIGEN_SYM_H_
#define FM_LINALG_EIGEN_SYM_H_

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::linalg {

/// Eigendecomposition A = Qᵀ Λ Q of a real symmetric matrix, where the rows
/// of Q are orthonormal eigenvectors (the paper's §6.2 convention) and Λ is
/// diagonal with the corresponding eigenvalues.
struct SymmetricEigen {
  /// Eigenvalues in descending order.
  Vector eigenvalues;
  /// Row i is the unit eigenvector for eigenvalues[i]; Q Qᵀ = I.
  Matrix eigenvectors;

  /// Reconstructs Qᵀ Λ Q (testing / diagnostics).
  Matrix Reconstruct() const;
};

/// Computes the full eigendecomposition of symmetric `a`: Householder
/// reduction to tridiagonal form, then QL iterations with implicit shifts
/// (EISPACK tred2/tql2, Golub & Van Loan §8.3). Costs O(d³) flops, about
/// 9d³ with the eigenvectors; serial, so the result does not depend on the
/// thread count.
///
/// Fails with kInvalidArgument when `a` fails CheckSymmetric (not square,
/// a non-finite entry, or not symmetric to within 1e-9·(1 + max|a_ij|));
/// and with kNumericalError when the QL iteration does not converge within
/// 30·d iterations or an eigenvalue overflows.
Result<SymmetricEigen> EigenSym(const Matrix& a);

}  // namespace fm::linalg

#endif  // FM_LINALG_EIGEN_SYM_H_
