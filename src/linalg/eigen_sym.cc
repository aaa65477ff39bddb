#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

namespace fm::linalg {
namespace {

// Householder reduction of symmetric `qt` to tridiagonal form T (EISPACK
// tred2, Golub & Van Loan §8.3.1), reducing the last row first. The
// textbook routine works on the lower triangle and accumulates Q by
// columns; here every access is transposed, so the active block lives in
// the upper triangle, each reflector is stored as a row, and every inner
// loop walks one row of the row-major storage. On return `qt` holds Qᵀ with
// A = Q T Qᵀ, `diag` is T's diagonal and sub[i] = T(i, i−1) for i ≥ 1.
void Tridiagonalize(Matrix& qt, std::vector<double>& diag,
                    std::vector<double>& sub) {
  const size_t n = qt.rows();
  for (size_t j = 0; j < n; ++j) diag[j] = qt(j, n - 1);

  for (size_t i = n - 1; i > 0; --i) {
    // diag[0..i) is column i of the active block; scale it to avoid
    // under/overflow in the reflector's norm.
    double scale = 0.0;
    for (size_t k = 0; k < i; ++k) scale += std::fabs(diag[k]);
    double h = 0.0;
    if (scale == 0.0) {
      // Column already reduced: no reflector.
      sub[i] = diag[i - 1];
      for (size_t j = 0; j < i; ++j) {
        diag[j] = qt(j, i - 1);
        qt(j, i) = 0.0;
        qt(i, j) = 0.0;
      }
    } else {
      // Reflector H = I − u uᵀ / h with u = diag[0..i).
      for (size_t k = 0; k < i; ++k) {
        diag[k] /= scale;
        h += diag[k] * diag[k];
      }
      double f = diag[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      sub[i] = scale * g;
      h -= f * g;
      diag[i - 1] = f - g;
      std::fill(sub.begin(), sub.begin() + i, 0.0);

      // p = A u over the active block (sub[0..i) accumulates it); u is
      // kept as row i of qt for the accumulation below.
      for (size_t j = 0; j < i; ++j) {
        f = diag[j];
        qt(i, j) = f;
        const double* row = qt.Row(j);
        g = sub[j] + row[j] * f;
        for (size_t k = j + 1; k < i; ++k) {
          g += row[k] * diag[k];
          sub[k] += row[k] * f;
        }
        sub[j] = g;
      }
      // w = p/h − (uᵀp / 2h²) u, then A ← A − u wᵀ − w uᵀ.
      f = 0.0;
      for (size_t j = 0; j < i; ++j) {
        sub[j] /= h;
        f += sub[j] * diag[j];
      }
      const double hh = f / (h + h);
      for (size_t j = 0; j < i; ++j) sub[j] -= hh * diag[j];
      for (size_t j = 0; j < i; ++j) {
        f = diag[j];
        g = sub[j];
        double* row = qt.Row(j);
        for (size_t k = j; k < i; ++k) row[k] -= f * sub[k] + g * diag[k];
        diag[j] = row[i - 1];
        row[i] = 0.0;
      }
    }
    diag[i] = h;
  }

  // Accumulate Qᵀ = H_{n−1} ⋯ H_1 in place, first reflector innermost. T's
  // diagonal, parked on qt's diagonal, moves to the free last column.
  for (size_t i = 0; i + 1 < n; ++i) {
    qt(i, n - 1) = qt(i, i);
    qt(i, i) = 1.0;
    const double h = diag[i + 1];
    double* u = qt.Row(i + 1);
    if (h != 0.0) {
      for (size_t k = 0; k <= i; ++k) diag[k] = u[k] / h;
      for (size_t j = 0; j <= i; ++j) {
        double* row = qt.Row(j);
        double g = 0.0;
        for (size_t k = 0; k <= i; ++k) g += u[k] * row[k];
        for (size_t k = 0; k <= i; ++k) row[k] -= g * diag[k];
      }
    }
    for (size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (size_t j = 0; j < n; ++j) {
    diag[j] = qt(j, n - 1);
    qt(j, n - 1) = 0.0;
  }
  qt(n - 1, n - 1) = 1.0;
  sub[0] = 0.0;
}

// Diagonalizes the tridiagonal (diag, sub) by QL iterations with implicit
// Wilkinson shifts (EISPACK tql2, Golub & Van Loan §8.3.5), applying each
// plane rotation to two adjacent rows of `qt`. On success diag holds the
// eigenvalues (unsorted) and row k of qt the eigenvector of diag[k]. A
// NaN never passes a convergence test, so it runs into the iteration cap.
Status DiagonalizeTridiagonal(std::vector<double>& diag,
                              std::vector<double>& sub, Matrix& qt) {
  const size_t n = diag.size();
  for (size_t i = 1; i < n; ++i) sub[i - 1] = sub[i];
  sub[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  // LAPACK's dsteqr budget: 30 QL iterations per eigenvalue, on average.
  const size_t max_iterations = 30 * n;
  size_t iterations = 0;
  double shift = 0.0;
  double tst1 = 0.0;
  for (size_t l = 0; l < n; ++l) {
    // Split off the unreduced block l..m: sub[m] is negligible (sub[n−1]
    // is zero, so m stops there).
    tst1 = std::max(tst1, std::fabs(diag[l]) + std::fabs(sub[l]));
    size_t m = l;
    while (m + 1 < n && !(std::fabs(sub[m]) <= eps * tst1)) ++m;
    while (m > l && !(std::fabs(sub[l]) <= eps * tst1)) {
      if (++iterations > max_iterations) {
        return Status::NumericalError("EigenSym: QL iteration did not converge");
      }
      // Shift by the eigenvalue of the leading 2×2 nearer diag[l].
      double g = diag[l];
      double p = (diag[l + 1] - g) / (2.0 * sub[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      diag[l] = sub[l] / (p + r);
      diag[l + 1] = sub[l] * (p + r);
      const double dl1 = diag[l + 1];
      double h = g - diag[l];
      for (size_t i = l + 2; i < n; ++i) diag[i] -= h;
      shift += h;

      // Chase the bulge from m up to l.
      p = diag[m];
      double c = 1.0;
      double c2 = 1.0;
      double c3 = 1.0;
      const double el1 = sub[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * sub[i];
        h = c * p;
        r = std::hypot(p, sub[i]);
        sub[i + 1] = s * r;
        s = sub[i] / r;
        c = p / r;
        p = c * diag[i] - s * g;
        diag[i + 1] = h + s * (c * g + s * diag[i]);
        double* lo = qt.Row(i);
        double* hi = qt.Row(i + 1);
        for (size_t k = 0; k < n; ++k) {
          const double t = hi[k];
          hi[k] = s * lo[k] + c * t;
          lo[k] = c * lo[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * sub[l] / dl1;
      sub[l] = s * p;
      diag[l] = c * p;
    }
    diag[l] += shift;
    sub[l] = 0.0;
  }
  return Status::OK();
}

}  // namespace

Matrix SymmetricEigen::Reconstruct() const {
  const size_t n = eigenvalues.size();
  Matrix out(n, n);
  // Qᵀ Λ Q = Σ_k λ_k q_k q_kᵀ with q_k the k-th row of Q.
  for (size_t k = 0; k < n; ++k) {
    AddOuterProduct(out, eigenvectors.RowVector(k), eigenvalues[k]);
  }
  return out;
}

Result<SymmetricEigen> EigenSym(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSym requires a square matrix");
  }
  // Checked first: MaxAbs skips NaN, and the symmetry test passes NaN and
  // Inf − Inf.
  for (double x : a.data()) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("EigenSym requires finite entries");
    }
  }
  if (!a.IsSymmetric(1e-9 * (1.0 + a.MaxAbs()))) {
    return Status::InvalidArgument("EigenSym requires a symmetric matrix");
  }
  const size_t n = a.rows();
  SymmetricEigen out;
  if (n == 0) return out;

  Matrix qt = a;
  std::vector<double> diag(n);
  std::vector<double> sub(n);
  Tridiagonalize(qt, diag, sub);
  FM_RETURN_NOT_OK(DiagonalizeTridiagonal(diag, sub, qt));
  for (double lambda : diag) {
    if (!std::isfinite(lambda)) {
      return Status::NumericalError("EigenSym: eigenvalue overflowed");
    }
  }

  // Descending eigenvalues; ties keep their QL order.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t i, size_t j) { return diag[i] > diag[j]; });
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (size_t r = 0; r < n; ++r) {
    out.eigenvalues[r] = diag[order[r]];
    std::copy(qt.Row(order[r]), qt.Row(order[r]) + n,
              out.eigenvectors.Row(r));
  }
  return out;
}

}  // namespace fm::linalg
