#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace fm::linalg {

namespace {

// Blocked right-looking factorization, in place on the lower triangle of
// `l` (which on entry holds the lower triangle of A; the upper triangle is
// zero). For each kCholeskyNb-wide column block: factor the diagonal block
// (left-looking within the block — contributions from columns left of the
// block were already subtracted by earlier trailing updates), solve the
// panel below it, then apply the rank-b trailing update as a grouped
// symmetric subtract. Per element every product l(i,k)·l(j,k) is consumed
// in ascending-k order with one grouped subtract per block, as
// RefSyrkLowerSubtract specifies; for n ≤ kCholeskyNb (one block) this
// reduces exactly to the classic scalar left-looking loop. Returns the
// first non-positive pivot column, or n on success.
size_t FactorLowerInPlace(Matrix& l) {
  const size_t n = l.rows();
  for (size_t jb = 0; jb < n; jb += kernels::kCholeskyNb) {
    const size_t b = std::min(kernels::kCholeskyNb, n - jb);
    // Diagonal block.
    for (size_t j = jb; j < jb + b; ++j) {
      double diag = l(j, j);
      for (size_t k = jb; k < j; ++k) diag -= l(j, k) * l(j, k);
      if (!(diag > 0.0) || !std::isfinite(diag)) return j;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (size_t i = j + 1; i < jb + b; ++i) {
        double sum = l(i, j);
        for (size_t k = jb; k < j; ++k) sum -= l(i, k) * l(j, k);
        l(i, j) = sum / ljj;
      }
    }
    if (jb + b >= n) break;
    // Panel solve: rows below the diagonal block against Lᵀ of the block.
    for (size_t i = jb + b; i < n; ++i) {
      for (size_t j = jb; j < jb + b; ++j) {
        double sum = l(i, j);
        for (size_t k = jb; k < j; ++k) sum -= l(i, k) * l(j, k);
        l(i, j) = sum / l(j, j);
      }
    }
    // Trailing update: A' -= P·Pᵀ over the remaining lower triangle.
    const size_t nt = n - (jb + b);
    const double* panel = l.Row(jb + b) + jb;
    double* trailing = l.Row(jb + b) + (jb + b);
    kernels::SyrkLowerSubtract(panel, n, nt, b, trailing, n);
  }
  return n;
}

}  // namespace

Result<Cholesky> Cholesky::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  if (!a.IsSymmetric(1e-9 * (1.0 + a.MaxAbs()))) {
    return Status::InvalidArgument("Cholesky requires a symmetric matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
  }
  const size_t pivot = FactorLowerInPlace(l);
  if (pivot < n) {
    return Status::NumericalError(
        "matrix is not positive definite (non-positive pivot at column " +
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

Matrix Cholesky::Solve(const Matrix& b) const {
  FM_CHECK(b.rows() == l_.rows());
  Matrix x(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    Vector col = Solve(b.ColVector(c));
    for (size_t r = 0; r < b.rows(); ++r) x(r, c) = col[r];
  }
  return x;
}

double Cholesky::LogDeterminant() const {
  double sum = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) sum += std::log(l_(i, i));
  return 2.0 * sum;
}

bool IsPositiveDefinite(const Matrix& a) {
  return Cholesky::Compute(a).ok();
}

}  // namespace fm::linalg
