#ifndef FM_LINALG_MATRIX_H_
#define FM_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "linalg/vector.h"

namespace fm::linalg {

/// Dense row-major matrix of doubles.
///
/// Value-semantic, contiguous storage. Dimension mismatches abort (programmer
/// error); numerically fallible operations (factorizations) live in the
/// decomposition headers and return fm::Status / fm::Result.
class Matrix {
 public:
  /// Constructs an empty (0x0) matrix.
  Matrix() = default;

  /// Constructs a zero matrix with `rows` x `cols`.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Constructs from nested initializer lists:
  /// Matrix m = {{1, 2}, {3, 4}}; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// The n x n identity.
  static Matrix Identity(size_t n);

  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const Vector& diag);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Unchecked element access.
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

  /// Element access, bounds-checked in Debug/ASan builds (FM_DCHECK); the
  /// check is compiled out of Release hot paths.
  double At(size_t r, size_t c) const {
    FM_DCHECK(r < rows_ && c < cols_);
    return (*this)(r, c);
  }

  /// Pointer to the start of row `r`.
  const double* Row(size_t r) const { return data_.data() + r * cols_; }
  double* Row(size_t r) { return data_.data() + r * cols_; }

  /// Copies row `r` into a Vector.
  Vector RowVector(size_t r) const;

  /// Copies column `c` into a Vector.
  Vector ColVector(size_t c) const;

  /// Sets row `r` from `v` (sizes must match).
  void SetRow(size_t r, const Vector& v);

  /// Underlying row-major storage.
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Sets every element to `value`.
  void Fill(double value);

  // In-place arithmetic.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Adds `value` to every main-diagonal entry (ridge shift M + value*I).
  void AddToDiagonal(double value);

  /// True iff square and |m(i,j) - m(j,i)| <= tol for all i, j.
  bool IsSymmetric(double tol = 1e-12) const;

  /// Copies the upper triangle onto the lower triangle (enforces symmetry).
  /// Requires a square matrix.
  void SymmetrizeFromUpper();

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max absolute entry.
  double MaxAbs() const;

  /// Multi-line string with 6 significant digits; for logging and tests.
  std::string ToString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// Non-member arithmetic.
Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double scalar);
Matrix operator*(double scalar, Matrix m);

/// Matrix-vector product a*x.
Vector MatVec(const Matrix& a, const Vector& x);

/// Rank-1 update target += scale * x xᵀ (target must be square, matching x).
void AddOuterProduct(Matrix& target, const Vector& x, double scale);

/// Quadratic form xᵀ m x (m square, matching x).
double QuadraticForm(const Matrix& m, const Vector& x);

/// Max |a(i,j) - b(i,j)|; aborts on shape mismatch.
double MaxAbsDiff(const Matrix& a, const Matrix& b);

/// True iff shapes match and all entries are within `tol`.
bool AllClose(const Matrix& a, const Matrix& b, double tol);

/// The input check of the symmetric decompositions (Cholesky, EigenSym):
/// kInvalidArgument, naming `who`, unless `a` is square, every entry is
/// finite, and |a(i,j) − a(j,i)| ≤ 1e-9·(1 + max|a(i,j)|). Finiteness is
/// checked first: the symmetry test passes NaN and Inf − Inf, and a
/// decomposition that reads one triangle would not see the other's.
Status CheckSymmetric(const Matrix& a, const char* who);

}  // namespace fm::linalg

#endif  // FM_LINALG_MATRIX_H_
