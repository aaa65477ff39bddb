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

// a·aᵀ, by the textbook loop.
Matrix AAt(const Matrix& a) {
  Matrix out(a.rows(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.rows(); ++j) {
      for (size_t l = 0; l < a.cols(); ++l) out(i, j) += a(i, l) * a(j, l);
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
  EXPECT_LT(MaxAbsDiff(AAt(l), a), 1e-10);
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
  EXPECT_EQ(Cholesky::Compute(indefinite).status().code(),
            StatusCode::kNumericalError);

  Matrix asym = {{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_EQ(Cholesky::Compute(asym).status().code(),
            StatusCode::kInvalidArgument);

  Matrix rect(2, 3);
  EXPECT_EQ(Cholesky::Compute(rect).status().code(),
            StatusCode::kInvalidArgument);
}

// B·Bᵀ·2^exponent for a random n×k Gaussian B: rank k, up to the
// rounding of the products.
Matrix PlantedGram(size_t n, size_t k, int exponent, Rng& rng) {
  Matrix b(n, k);
  for (auto& v : b.data()) v = rng.Gaussian();
  Matrix gram = AAt(b);
  gram *= std::ldexp(1.0, exponent);
  return gram;
}

// XᵀX·2^exponent for a 100×n design X whose first k columns are random
// and whose other columns copy one of them: rank k, exactly.
Matrix DuplicateColumnGram(size_t n, size_t k, int exponent, Rng& rng) {
  std::vector<size_t> source(n);
  for (size_t j = 0; j < n; ++j) source[j] = j < k ? j : rng.UniformInt(k);
  Matrix x(100, n);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t j = 0; j < k; ++j) x(r, j) = rng.Uniform(-1.0, 1.0);
    for (size_t j = k; j < n; ++j) x(r, j) = x(r, source[j]);
  }
  Matrix gram = AtA(x);
  gram *= std::ldexp(1.0, exponent);
  return gram;
}

TEST(CholeskyTest, PivotFloorRefusesRankDeficientAndFactorsGraded) {
  // A pivot at or below n·2⁻⁵²·max A(i,i) is rounding error, so rank-1 and
  // rank-k Grams are refused like indefinite matrices, whatever their
  // magnitude. Without pivoting the floor holds while the leading rank-k
  // block is well conditioned: k ≤ n/2 keeps a random Gaussian one so, and
  // copied columns keep it so up to k = n − 1.
  Rng rng(59);
  for (size_t n : {size_t{2}, size_t{13}, size_t{50}}) {
    for (int exponent : {-30, 0, 30}) {
      for (size_t k : {size_t{1}, size_t{2}, n / 4, n / 2}) {
        if (k == 0 || 2 * k > n) continue;
        for (int trial = 0; trial < 20; ++trial) {
          EXPECT_EQ(Cholesky::Compute(PlantedGram(n, k, exponent, rng))
                        .status()
                        .code(),
                    StatusCode::kNumericalError)
              << "n=" << n << " k=" << k << " 2^" << exponent << " #"
              << trial;
        }
      }
      for (size_t k : {size_t{1}, n / 2, n - 1}) {
        for (int trial = 0; trial < 10; ++trial) {
          EXPECT_EQ(
              Cholesky::Compute(DuplicateColumnGram(n, k, exponent, rng))
                  .status()
                  .code(),
              StatusCode::kNumericalError)
              << "copied columns, n=" << n << " k=" << k << " 2^" << exponent
              << " #" << trial;
        }
      }
      // The least-squares Gram of m rows that all sit on the grid-center
      // point x_j = 1/(2√n), as a DPME/FP synthetic dataset does on a grid
      // with one bin per feature: every entry is the same double.
      const double c = 0.5 / std::sqrt(static_cast<double>(n));
      for (int m = 50; m < 250; ++m) {
        Matrix center(n, n);
        center.Fill(std::ldexp(m * c * c, exponent));
        EXPECT_EQ(Cholesky::Compute(center).status().code(),
                  StatusCode::kNumericalError)
            << "grid center, n=" << n << " m=" << m << " 2^" << exponent;
      }
    }
  }
  // Graded but full rank: 2⁻⁴⁰ is far above the floor 3·2⁻⁵².
  const auto graded = Cholesky::Compute(
      Matrix::Diagonal(Vector{1.0, std::ldexp(1.0, -40), 1.0}));
  ASSERT_TRUE(graded.ok()) << graded.status();
  EXPECT_EQ(graded.ValueOrDie().L()(1, 1), std::ldexp(1.0, -20));
}

TEST(SymmetricInputTest, BothDecompositionsRejectNonFiniteEntries) {
  // The symmetry test passes NaN and Inf − Inf, and Cholesky reads only the
  // lower triangle, so finiteness must be checked on its own, and before
  // either decomposition runs. The base matrix is positive definite.
  const Matrix base = {{3.0, 1.0, 0.0}, {1.0, 2.0, 0.5}, {0.0, 0.5, 1.0}};
  ASSERT_TRUE(Cholesky::Compute(base).ok());
  const double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    Matrix diagonal = base;
    diagonal(1, 1) = bad;
    Matrix pair = base;
    pair(0, 2) = pair(2, 0) = bad;
    Matrix upper = base;
    upper(0, 2) = bad;
    Matrix lower = base;
    lower(2, 1) = bad;
    for (const Matrix* a : {&diagonal, &pair, &upper, &lower}) {
      SCOPED_TRACE(testing::Message() << bad << "\n" << a->ToString());
      EXPECT_EQ(Cholesky::Compute(*a).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(EigenSym(*a).status().code(), StatusCode::kInvalidArgument);
    }
  }
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
  EXPECT_LT(MaxAbsDiff(AAt(q), Matrix::Identity(6)), 1e-10);
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
      EXPECT_LE(MaxAbsDiff(AAt(got.eigenvectors), Matrix::Identity(n)),
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
