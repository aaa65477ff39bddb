#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "linalg/kernels.h"

namespace fm::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    FM_CHECK(row.size() == cols_);
    for (double x : row) data_.push_back(x);
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Vector Matrix::RowVector(size_t r) const {
  FM_DCHECK(r < rows_);
  Vector v(cols_);
  const auto row = RowSpan(r);
  std::copy(row.begin(), row.end(), v.data().begin());
  return v;
}

Vector Matrix::ColVector(size_t c) const {
  FM_DCHECK(c < cols_);
  Vector v(rows_);
  const double* src = data_.data() + c;
  for (size_t r = 0; r < rows_; ++r) v[r] = src[r * cols_];
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  FM_DCHECK(r < rows_);
  FM_CHECK(v.size() == cols_);
  std::copy(v.begin(), v.end(), RowSpan(r).begin());
}

void Matrix::Fill(double value) {
  for (auto& x : data_) x = value;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  FM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  FM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

void Matrix::AddToDiagonal(double value) {
  FM_CHECK(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

Matrix Matrix::Transposed() const {
  // Cache-blocked tiles: both the read and the write stay within a
  // 32×32-element working set instead of striding a full row/column per
  // element. Pure copies, so the result is exact for any tiling.
  constexpr size_t kTile = 32;
  Matrix t(cols_, rows_);
  for (size_t r0 = 0; r0 < rows_; r0 += kTile) {
    const size_t r1 = std::min(rows_, r0 + kTile);
    for (size_t c0 = 0; c0 < cols_; c0 += kTile) {
      const size_t c1 = std::min(cols_, c0 + kTile);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) t(c, r) = (*this)(r, c);
      }
    }
  }
  return t;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

void Matrix::SymmetrizeFromUpper() {
  FM_CHECK(rows_ == cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < cols_; ++c) (*this)(c, r) = (*this)(r, c);
  }
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

std::string Matrix::ToString() const {
  std::string out;
  char buf[32];
  for (size_t r = 0; r < rows_; ++r) {
    out += "[";
    for (size_t c = 0; c < cols_; ++c) {
      std::snprintf(buf, sizeof(buf), "%.6g", (*this)(r, c));
      if (c) out += ", ";
      out += buf;
    }
    out += "]\n";
  }
  return out;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(Matrix m, double scalar) {
  m *= scalar;
  return m;
}

Matrix operator*(double scalar, Matrix m) {
  m *= scalar;
  return m;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  FM_CHECK(a.cols() == x.size());
  Vector out(a.rows());
  kernels::MatVec(a.data().data(), a.cols(), a.rows(), a.cols(), x.raw(),
                  out.raw());
  return out;
}

void AddOuterProduct(Matrix& target, const Vector& x, double scale) {
  FM_CHECK(target.rows() == x.size() && target.cols() == x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const double sxi = scale * x[i];
    if (sxi == 0.0) continue;
    double* row = target.Row(i);
    for (size_t j = 0; j < x.size(); ++j) row[j] += sxi * x[j];
  }
}

double QuadraticForm(const Matrix& m, const Vector& x) {
  FM_CHECK(m.rows() == x.size() && m.cols() == x.size());
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sum += x[i] * kernels::Dot(m.Row(i), x.raw(), x.size());
  }
  return sum;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  FM_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double best = 0.0;
  for (size_t i = 0; i < a.data().size(); ++i) {
    best = std::max(best, std::fabs(a.data()[i] - b.data()[i]));
  }
  return best;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return MaxAbsDiff(a, b) <= tol;
}

}  // namespace fm::linalg
