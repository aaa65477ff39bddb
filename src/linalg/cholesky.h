#ifndef FM_LINALG_CHOLESKY_H_
#define FM_LINALG_CHOLESKY_H_

#include "common/result.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::linalg {

/// Cholesky factorization A = L Lᵀ of a symmetric positive-definite matrix,
/// by the scalar left-looking loop.
///
/// The factorization doubles as the library's positive-definiteness test:
/// `Cholesky::Compute` fails with kNumericalError exactly when A is not
/// positive definite to working precision — this is how the quadratic
/// solvers decide that an objective has no unique minimizer. Every pivot
/// must exceed n·2⁻⁵²·maxᵢ A(i,i), the stopping rule of LAPACK's pivoted
/// Cholesky (dpstrf). A smaller pivot is rounding error, so a rank-deficient
/// matrix is refused like an indefinite one — such as the Gram matrix of a
/// design whose rows all sit on one point, or whose columns repeat — and
/// the caller takes its minimum-norm or damped fallback instead of dividing
/// by noise. The loop does not pivot, so the refusal is certain only while
/// the leading rank-r block is well conditioned: rounding in an
/// ill-conditioned one can leave a trailing pivot above the floor.
class Cholesky {
 public:
  /// Factorizes `a`. Returns kInvalidArgument when `a` is not square,
  /// finite and symmetric (CheckSymmetric), and kNumericalError when a
  /// pivot is at or below the floor above.
  static Result<Cholesky> Compute(const Matrix& a);

  /// The lower-triangular factor L.
  const Matrix& L() const { return l_; }

  /// Solves A x = b via the two triangular solves. `b` must match A's size.
  Vector Solve(const Vector& b) const;

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}

  Matrix l_;
};

}  // namespace fm::linalg

#endif  // FM_LINALG_CHOLESKY_H_
