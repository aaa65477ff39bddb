#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace fm::linalg {

namespace {

// Left-looking factorization, in place on the lower triangle of `l` (which
// on entry holds the lower triangle of A; the upper triangle is zero). Per
// element the products l(i,k)·l(j,k) are subtracted one at a time in
// ascending-k order. Returns the first column whose pivot is at or below
// `floor`, or n on success.
size_t FactorLowerInPlace(Matrix& l, double floor) {
  const size_t n = l.rows();
  for (size_t j = 0; j < n; ++j) {
    double diag = l(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > floor)) return j;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double sum = l(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / ljj;
    }
  }
  return n;
}

}  // namespace

Result<Cholesky> Cholesky::Compute(const Matrix& a) {
  FM_RETURN_NOT_OK(CheckSymmetric(a, "Cholesky"));
  const size_t n = a.rows();
  Matrix l(n, n);
  double max_diag = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
    max_diag = std::max(max_diag, a(i, i));
  }
  // The stopping rule of LAPACK's pivoted Cholesky, dpstrf (Higham,
  // "Accuracy and Stability of Numerical Algorithms", §10.3): a pivot this
  // small is rounding error, so the matrix is numerically rank-deficient.
  const double floor = static_cast<double>(n) *
                       std::numeric_limits<double>::epsilon() * max_diag;
  const size_t pivot = FactorLowerInPlace(l, floor);
  if (pivot < n) {
    return Status::NumericalError(
        "matrix is not positive definite to working precision (pivot at "
        "column " +
        std::to_string(pivot) + ")");
  }
  return Cholesky(std::move(l));
}

Vector Cholesky::Solve(const Vector& b) const {
  const size_t n = l_.rows();
  FM_CHECK(b.size() == n);
  // Forward substitution: L y = b.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l_(i, k) * y[k];
    y[i] = sum / l_(i, i);
  }
  // Back substitution: Lᵀ x = y.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l_(k, ii) * x[k];
    x[ii] = sum / l_(ii, ii);
  }
  return x;
}

}  // namespace fm::linalg
