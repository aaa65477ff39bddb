#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace fm::linalg {
namespace {

Matrix RandomSpd(size_t n, Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (auto& v : a.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix spd = Gram(a);
  spd.AddToDiagonal(ridge);
  return spd;
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(41);
  const Matrix a = RandomSpd(6, rng);
  const auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok()) << chol.status();
  const Matrix l = chol.ValueOrDie().L();
  EXPECT_LT(MaxAbsDiff(Gram(l.Transposed()), a), 1e-10);  // L·Lᵀ
}

TEST(CholeskyTest, SolveMatchesKnownSolution) {
  Matrix a = {{4.0, 2.0}, {2.0, 3.0}};
  const auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  // A·[1, 2]ᵀ = [8, 8]ᵀ.
  const Vector x = chol.ValueOrDie().Solve(Vector{8.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskyTest, RejectsIndefiniteAndNonSymmetric) {
  Matrix indefinite = {{1.0, 0.0}, {0.0, -1.0}};
  EXPECT_FALSE(Cholesky::Compute(indefinite).ok());
  EXPECT_FALSE(IsPositiveDefinite(indefinite));

  Matrix asym = {{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_EQ(Cholesky::Compute(asym).status().code(),
            StatusCode::kInvalidArgument);

  Matrix rect(2, 3);
  EXPECT_EQ(Cholesky::Compute(rect).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, LogDeterminant) {
  Matrix a = {{4.0, 0.0}, {0.0, 9.0}};
  const auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol.ValueOrDie().LogDeterminant(), std::log(36.0), 1e-12);
}

TEST(EigenSymTest, DiagonalMatrixSortedDescending) {
  const Matrix a = Matrix::Diagonal(Vector{1.0, 5.0, -2.0});
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok()) << eig.status();
  const auto& values = eig.ValueOrDie().eigenvalues;
  EXPECT_NEAR(values[0], 5.0, 1e-12);
  EXPECT_NEAR(values[1], 1.0, 1e-12);
  EXPECT_NEAR(values[2], -2.0, 1e-12);
}

TEST(EigenSymTest, ReconstructsRandomSymmetric) {
  Rng rng(47);
  Matrix a(7, 7);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = i; j < 7; ++j) {
      a(i, j) = rng.Uniform(-3.0, 3.0);
      a(j, i) = a(i, j);
    }
  }
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_LT(MaxAbsDiff(eig.ValueOrDie().Reconstruct(), a), 1e-9);
}

TEST(EigenSymTest, RowsAreOrthonormal) {
  Rng rng(53);
  const Matrix a = RandomSpd(6, rng);
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  const Matrix& q = eig.ValueOrDie().eigenvectors;
  // Gram(Qᵀ) = Q·Qᵀ.
  EXPECT_LT(MaxAbsDiff(Gram(q.Transposed()), Matrix::Identity(6)), 1e-10);
}

TEST(EigenSymTest, KnownEigenpair) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a = {{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = EigenSym(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.ValueOrDie().eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.ValueOrDie().eigenvalues[1], 1.0, 1e-12);
  // Eigenvector for λ=3 is ±[1,1]/√2.
  const Vector q0 = eig.ValueOrDie().eigenvectors.RowVector(0);
  EXPECT_NEAR(std::fabs(q0[0]), 1.0 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(q0[0], q0[1], 1e-10);
}

TEST(EigenSymTest, RejectsNonSymmetric) {
  Matrix a = {{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_EQ(EigenSym(a).status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveTest, PseudoSolveDropsNullSpace) {
  // Rank-1 symmetric: A = [1,1]ᵀ[1,1]; b = [2,2] → minimum-norm x = [1,1].
  Matrix a = {{1.0, 1.0}, {1.0, 1.0}};
  const auto x = SolveSymmetricPseudo(a, Vector{2.0, 2.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.ValueOrDie()[0], 1.0, 1e-10);
  EXPECT_NEAR(x.ValueOrDie()[1], 1.0, 1e-10);
}

TEST(SolveTest, LeastSquaresRecoversPlantedModel) {
  Rng rng(61);
  const size_t n = 200, d = 4;
  Matrix x(n, d);
  for (auto& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  const Vector w_true = {0.5, -1.0, 2.0, 0.25};
  Vector y = MatVec(x, w_true);
  const auto w = LeastSquares(x, y);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(AllClose(w.ValueOrDie(), w_true, 1e-10));
}

TEST(SolveTest, LeastSquaresHandlesCollinearColumns) {
  // Second column duplicates the first; the pseudo-inverse fallback must
  // kick in and return a finite minimum-norm solution.
  Matrix x(50, 2);
  Rng rng(67);
  for (size_t i = 0; i < 50; ++i) {
    const double v = rng.Uniform(-1.0, 1.0);
    x(i, 0) = v;
    x(i, 1) = v;
  }
  Vector y(50);
  for (size_t i = 0; i < 50; ++i) y[i] = 3.0 * x(i, 0);
  const auto w = LeastSquares(x, y);
  ASSERT_TRUE(w.ok()) << w.status();
  // Minimum-norm solution splits the weight: [1.5, 1.5].
  EXPECT_NEAR(w.ValueOrDie()[0], 1.5, 1e-8);
  EXPECT_NEAR(w.ValueOrDie()[1], 1.5, 1e-8);
}

TEST(SolveTest, RidgeShrinksSolution) {
  Rng rng(71);
  const size_t n = 100, d = 3;
  Matrix x(n, d);
  for (auto& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) y[i] = x(i, 0) + rng.Gaussian(0.0, 0.1);
  const auto plain = LeastSquares(x, y, 0.0);
  const auto ridged = LeastSquares(x, y, 100.0);
  ASSERT_TRUE(plain.ok() && ridged.ok());
  EXPECT_LT(ridged.ValueOrDie().Norm2(), plain.ValueOrDie().Norm2());
}

}  // namespace
}  // namespace fm::linalg
