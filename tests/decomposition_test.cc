#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace fm::linalg {
namespace {

// aᵀa, by the textbook loop.
Matrix AtA(const Matrix& a) {
  Matrix out(a.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t j = 0; j < a.cols(); ++j) {
      for (size_t l = 0; l < a.cols(); ++l) out(j, l) += a(r, j) * a(r, l);
    }
  }
  return out;
}

Matrix RandomSpd(size_t n, Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (auto& v : a.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix spd = AtA(a);
  spd.AddToDiagonal(ridge);
  return spd;
}

TEST(CholeskyTest, FactorReconstructs) {
  Rng rng(41);
  const Matrix a = RandomSpd(6, rng);
  const auto chol = Cholesky::Compute(a);
  ASSERT_TRUE(chol.ok()) << chol.status();
  const Matrix l = chol.ValueOrDie().L();
  EXPECT_LT(MaxAbsDiff(AtA(l.Transposed()), a), 1e-10);  // L·Lᵀ
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
  // AtA(Qᵀ) = Q·Qᵀ.
  EXPECT_LT(MaxAbsDiff(AtA(q.Transposed()), Matrix::Identity(6)), 1e-10);
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

TEST(EigenSymTest, RejectsNonFiniteEntries) {
  // Neither the symmetry test nor MaxAbs sees NaN, and Inf − Inf is NaN, so
  // these must be caught before the reduction runs on them.
  const Matrix base = {{3.0, 1.0, 0.0}, {1.0, 2.0, 0.5}, {0.0, 0.5, 1.0}};
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    SCOPED_TRACE(bad);
    Matrix diagonal = base;
    diagonal(1, 1) = bad;
    EXPECT_EQ(EigenSym(diagonal).status().code(),
              StatusCode::kInvalidArgument);
    Matrix pair = base;
    pair(0, 2) = pair(2, 0) = bad;
    EXPECT_EQ(EigenSym(pair).status().code(), StatusCode::kInvalidArgument);
    Matrix single = base;
    single(2, 1) = bad;
    EXPECT_EQ(EigenSym(single).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EigenSymTest, OverflowIsANumericalError) {
  // Finite entries whose reflector norm overflows: the NaN this breeds must
  // end in an error, not in NaN eigenvalues.
  Matrix a(3, 3);
  a.Fill(1e308);
  EXPECT_EQ(EigenSym(a).status().code(), StatusCode::kNumericalError);
}

// A random orthogonal Q as a product of n Householder reflections.
Matrix RandomOrthogonal(size_t n, Rng& rng) {
  Matrix q = Matrix::Identity(n);
  for (size_t r = 0; r < n; ++r) {
    Vector v(n);
    for (auto& x : v) x = rng.Uniform(-1.0, 1.0);
    const double vv = Dot(v, v);
    // Q ← (I − 2vvᵀ/vᵀv) Q, column by column.
    for (size_t c = 0; c < n; ++c) {
      double dot = 0.0;
      for (size_t k = 0; k < n; ++k) dot += v[k] * q(k, c);
      for (size_t k = 0; k < n; ++k) q(k, c) -= 2.0 * dot / vv * v[k];
    }
  }
  return q;
}

TEST(EigenSymTest, PlantedHardSpectra) {
  struct Spectrum {
    const char* name;
    double (*value)(size_t k, size_t n);
  };
  const Spectrum spectra[] = {
      {"half zero", [](size_t k, size_t n) {
         return 2 * k < n ? 1.0 + static_cast<double>(k) : 0.0;
       }},
      {"cluster, 1e-12 gaps",
       [](size_t k, size_t) { return 1.0 + 1e-12 * static_cast<double>(k); }},
      {"graded indefinite", [](size_t k, size_t n) {
         const double exponent =
             n == 1 ? 0.0 : -8.0 + 16.0 * static_cast<double>(k) /
                                        static_cast<double>(n - 1);
         return (k % 2 == 0 ? 1.0 : -1.0) * std::pow(10.0, exponent);
       }},
      {"identity", [](size_t, size_t) { return 1.0; }},
      {"zero", [](size_t, size_t) { return 0.0; }},
  };
  Rng rng(71);
  for (size_t n : {size_t{1}, size_t{2}, size_t{13}, size_t{50}, size_t{100}}) {
    const Matrix q = RandomOrthogonal(n, rng);
    for (const Spectrum& spectrum : spectra) {
      SCOPED_TRACE(testing::Message() << spectrum.name << ", d=" << n);
      SymmetricEigen planted;
      planted.eigenvalues = Vector(n);
      for (size_t k = 0; k < n; ++k) {
        planted.eigenvalues[k] = spectrum.value(k, n);
      }
      planted.eigenvectors = q;
      Matrix a = planted.Reconstruct();
      a.SymmetrizeFromUpper();
      const double a_max = a.MaxAbs();

      const auto eig = EigenSym(a);
      ASSERT_TRUE(eig.ok()) << eig.status();
      const SymmetricEigen& got = eig.ValueOrDie();
      ASSERT_EQ(got.eigenvalues.size(), n);
      for (size_t k = 1; k < n; ++k) {
        EXPECT_GE(got.eigenvalues[k - 1], got.eigenvalues[k]);
      }
      EXPECT_LE(MaxAbsDiff(got.Reconstruct(), a), 1e-13 * a_max);
      EXPECT_LE(MaxAbsDiff(AtA(got.eigenvectors.Transposed()),
                           Matrix::Identity(n)),
                1e-13);
      std::vector<double> want(planted.eigenvalues.begin(),
                               planted.eigenvalues.end());
      std::sort(want.begin(), want.end(), std::greater<double>());
      for (size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(got.eigenvalues[k], want[k], 1e-13 * a_max) << k;
      }
    }
  }
  const auto empty = EigenSym(Matrix());
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.ValueOrDie().eigenvalues.size(), 0u);
  EXPECT_EQ(empty.ValueOrDie().eigenvectors.rows(), 0u);
}

TEST(SolveTest, PseudoSolveDropsNullSpace) {
  // Rank-1 symmetric: A = [1,1]ᵀ[1,1]; b = [2,2] → minimum-norm x = [1,1].
  Matrix a = {{1.0, 1.0}, {1.0, 1.0}};
  const auto x = SolveSymmetricPseudo(a, Vector{2.0, 2.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.ValueOrDie()[0], 1.0, 1e-10);
  EXPECT_NEAR(x.ValueOrDie()[1], 1.0, 1e-10);
}

}  // namespace
}  // namespace fm::linalg
