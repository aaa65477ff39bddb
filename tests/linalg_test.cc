#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace fm::linalg {
namespace {

TEST(VectorTest, ConstructionAndAccess) {
  Vector v = {1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
  v[1] = 5.0;
  EXPECT_DOUBLE_EQ(v.At(1), 5.0);
  Vector zeros(4);
  EXPECT_DOUBLE_EQ(zeros.Norm1(), 0.0);
}

TEST(VectorTest, Arithmetic) {
  Vector a = {1.0, 2.0};
  Vector b = {3.0, -1.0};
  EXPECT_DOUBLE_EQ((a + b)[0], 4.0);
  EXPECT_DOUBLE_EQ((a - b)[1], 3.0);
  EXPECT_DOUBLE_EQ((2.0 * a)[1], 4.0);
  EXPECT_DOUBLE_EQ((a / 2.0)[0], 0.5);
  EXPECT_DOUBLE_EQ((-a)[0], -1.0);
  a.Axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a[0], 7.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
}

TEST(VectorTest, NormsAndDot) {
  Vector v = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(v.Norm2(), 5.0);
  EXPECT_DOUBLE_EQ(v.Norm1(), 7.0);
  EXPECT_DOUBLE_EQ(v.NormInf(), 4.0);
  EXPECT_DOUBLE_EQ(v.Sum(), -1.0);
  EXPECT_DOUBLE_EQ(Dot(v, v), 25.0);
  EXPECT_DOUBLE_EQ(Hadamard(v, v)[1], 16.0);
}

TEST(VectorTest, Norm2AvoidsOverflow) {
  Vector v = {1e200, 1e200};
  EXPECT_DOUBLE_EQ(v.Norm2(), std::sqrt(2.0) * 1e200);
}

TEST(VectorTest, AllCloseAndMaxDiff) {
  Vector a = {1.0, 2.0};
  Vector b = {1.0, 2.00001};
  EXPECT_TRUE(AllClose(a, b, 1e-4));
  EXPECT_FALSE(AllClose(a, b, 1e-6));
  EXPECT_NEAR(MaxAbsDiff(a, b), 1e-5, 1e-9);
  EXPECT_FALSE(AllClose(a, Vector{1.0}, 1.0));  // size mismatch
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.RowVector(1)[1], 4.0);
  EXPECT_DOUBLE_EQ(m.ColVector(0)[1], 3.0);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix i3 = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 2), 0.0);
  const Matrix d = Matrix::Diagonal(Vector{2.0, 5.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(MatrixTest, ArithmeticAndDiagonalShift) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = Matrix::Identity(2);
  EXPECT_DOUBLE_EQ((a + b)(0, 0), 2.0);
  EXPECT_DOUBLE_EQ((a - b)(1, 1), 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0)(1, 0), 6.0);
  a.AddToDiagonal(10.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
}

TEST(MatrixTest, TransposeAndSymmetry) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);

  Matrix s = {{1.0, 2.0}, {2.0, 5.0}};
  EXPECT_TRUE(s.IsSymmetric());
  s(1, 0) = 99.0;
  EXPECT_FALSE(s.IsSymmetric());
  s.SymmetrizeFromUpper();
  EXPECT_TRUE(s.IsSymmetric());
  EXPECT_DOUBLE_EQ(s(1, 0), 2.0);
}

TEST(MatrixTest, MatVecAndTranspose) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Vector x = {1.0, -1.0};
  const Vector ax = MatVec(a, x);
  EXPECT_DOUBLE_EQ(ax[0], -1.0);
  EXPECT_DOUBLE_EQ(ax[2], -1.0);
  const Matrix at = a.Transposed();
  EXPECT_EQ(at.rows(), 2u);
  EXPECT_DOUBLE_EQ(at(1, 2), 6.0);
}

TEST(MatrixTest, OuterProductAndQuadraticForm) {
  Matrix m(2, 2);
  AddOuterProduct(m, Vector{1.0, 2.0}, 3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 12.0);
  // xᵀMx with M = 3·[1,2]ᵀ[1,2] and x = [1,1]: 3·(1+2)² = 27.
  EXPECT_DOUBLE_EQ(QuadraticForm(m, Vector{1.0, 1.0}), 27.0);
}

TEST(MatrixTest, FrobeniusAndMaxAbs) {
  Matrix m = {{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
}

}  // namespace
}  // namespace fm::linalg
