#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "opt/logistic_loss.h"
#include "opt/quadratic_model.h"

namespace fm::opt {
namespace {

TEST(SigmoidTest, KnownValuesAndStability) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 - Sigmoid(2.0), 1e-15);
  // No overflow at extremes.
  EXPECT_DOUBLE_EQ(Sigmoid(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(Sigmoid(-1000.0), 0.0);
}

TEST(Log1pExpTest, MatchesReferenceAndIsStable) {
  for (double z : {-30.0, -5.0, -0.5, 0.0, 0.5, 5.0, 30.0}) {
    EXPECT_NEAR(Log1pExp(z), std::log1p(std::exp(z)), 1e-12) << z;
  }
  EXPECT_DOUBLE_EQ(Log1pExp(1000.0), 1000.0);
  EXPECT_NEAR(Log1pExp(-1000.0), 0.0, 1e-300);
}

TEST(QuadraticModelTest, EvaluateAndGradient) {
  QuadraticModel q;
  q.m = {{2.0, 0.5}, {0.5, 1.0}};
  q.alpha = {1.0, -2.0};
  q.beta = 3.0;
  const linalg::Vector w = {1.0, 2.0};
  // wᵀMw = 2 + 0.5·2·2·1... compute: [1,2]·M·[1,2] = [1,2]·[3.0, 2.5] = 8.
  EXPECT_DOUBLE_EQ(q.Evaluate(w), 8.0 + (1.0 - 4.0) + 3.0);
  const linalg::Vector g = q.Gradient(w);
  // 2Mw + α = [6, 5] + [1, -2] = [7, 3].
  EXPECT_DOUBLE_EQ(g[0], 7.0);
  EXPECT_DOUBLE_EQ(g[1], 3.0);
}

TEST(QuadraticModelTest, MinimizeSetsGradientToZero) {
  QuadraticModel q;
  q.m = {{3.0, 1.0}, {1.0, 2.0}};
  q.alpha = {-1.0, 4.0};
  q.beta = 0.0;
  const auto w = q.Minimize();
  ASSERT_TRUE(w.ok());
  EXPECT_LT(q.Gradient(w.ValueOrDie()).NormInf(), 1e-12);
}

TEST(QuadraticModelTest, MinimizeFailsOnIndefinite) {
  QuadraticModel q;
  q.m = {{1.0, 0.0}, {0.0, -1.0}};
  q.alpha = {0.0, 0.0};
  EXPECT_EQ(q.Minimize().status().code(), StatusCode::kNumericalError);
}

TEST(QuadraticModelTest, PaperWorkedExample) {
  // §4.2: fD(ω) = 2.06ω² − 2.34ω + 1.25 with ω* = 117/206.
  QuadraticModel q;
  q.m = {{2.06}};
  q.alpha = {-2.34};
  q.beta = 1.25;
  const auto w = q.Minimize();
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(w.ValueOrDie()[0], 117.0 / 206.0, 1e-12);
}

linalg::Matrix MakeLogisticData(size_t n, const linalg::Vector& w_true,
                                linalg::Vector* y, Rng& rng) {
  const size_t d = w_true.size();
  linalg::Matrix x(n, d);
  y->Resize(n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      x(i, j) = rng.Uniform(-scale, scale);
      z += x(i, j) * w_true[j];
    }
    (*y)[i] = rng.Bernoulli(Sigmoid(z)) ? 1.0 : 0.0;
  }
  return x;
}

TEST(LogisticObjectiveTest, GradientMatchesFiniteDifferences) {
  Rng rng(81);
  linalg::Vector y;
  const linalg::Vector w_true = {2.0, -1.0, 0.5};
  const linalg::Matrix x = MakeLogisticData(50, w_true, &y, rng);
  const LogisticObjective objective(x, y);

  const linalg::Vector w = {0.3, -0.2, 0.1};
  const linalg::Vector grad = objective.Gradient(w);
  const double h = 1e-6;
  for (size_t j = 0; j < 3; ++j) {
    linalg::Vector wp = w, wm = w;
    wp[j] += h;
    wm[j] -= h;
    const double numeric =
        (objective.Value(wp) - objective.Value(wm)) / (2.0 * h);
    EXPECT_NEAR(grad[j], numeric, 1e-5);
  }
}

TEST(LogisticObjectiveTest, HessianMatchesFiniteDifferences) {
  Rng rng(83);
  linalg::Vector y;
  const linalg::Vector w_true = {1.0, -2.0};
  const linalg::Matrix x = MakeLogisticData(40, w_true, &y, rng);
  const LogisticObjective objective(x, y);

  const linalg::Vector w = {0.5, 0.25};
  const linalg::Matrix hess = objective.Hessian(w);
  const double h = 1e-5;
  for (size_t j = 0; j < 2; ++j) {
    linalg::Vector wp = w, wm = w;
    wp[j] += h;
    wm[j] -= h;
    const linalg::Vector gp = objective.Gradient(wp);
    const linalg::Vector gm = objective.Gradient(wm);
    for (size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(hess(j, k), (gp[k] - gm[k]) / (2.0 * h), 1e-4);
    }
  }
}

TEST(LogisticObjectiveTest, RidgeAddsToValueGradHessian) {
  Rng rng(85);
  linalg::Vector y;
  const linalg::Matrix x = MakeLogisticData(30, {1.0, 1.0}, &y, rng);
  const LogisticObjective plain(x, y, 0.0);
  const LogisticObjective ridged(x, y, 10.0);
  const linalg::Vector w = {0.4, -0.3};
  EXPECT_NEAR(ridged.Value(w) - plain.Value(w), 5.0 * Dot(w, w), 1e-12);
  EXPECT_NEAR(ridged.Gradient(w)[0] - plain.Gradient(w)[0], 10.0 * w[0],
              1e-12);
  EXPECT_NEAR(ridged.Hessian(w)(1, 1) - plain.Hessian(w)(1, 1), 10.0, 1e-12);
}

TEST(FitLogisticNewtonTest, DrivesGradientToZero) {
  Rng rng(87);
  linalg::Vector y;
  const linalg::Vector w_true = {3.0, -2.0, 1.0};
  const linalg::Matrix x = MakeLogisticData(3000, w_true, &y, rng);
  const auto w = FitLogisticNewton(x, y);
  ASSERT_TRUE(w.ok()) << w.status();
  const LogisticObjective objective(x, y);
  EXPECT_LT(objective.Gradient(w.ValueOrDie()).NormInf(), 1e-4 * 3000);
  // Direction of the recovered parameter matches the planted one.
  EXPECT_GT(Dot(w.ValueOrDie(), w_true), 0.0);
}

TEST(FitLogisticNewtonTest, HandlesSeparableData) {
  // Perfectly separable: the MLE diverges, but damping/line search must
  // still terminate and classify the training points correctly.
  linalg::Matrix x(20, 1);
  linalg::Vector y(20);
  for (size_t i = 0; i < 20; ++i) {
    x(i, 0) = (i < 10) ? -0.5 : 0.5;
    y[i] = (i < 10) ? 0.0 : 1.0;
  }
  const auto w = FitLogisticNewton(x, y);
  ASSERT_TRUE(w.ok());
  EXPECT_GT(w.ValueOrDie()[0], 0.0);
  EXPECT_TRUE(std::isfinite(w.ValueOrDie()[0]));
}

TEST(FitLogisticNewtonTest, RejectsBadInput) {
  linalg::Matrix x(3, 2);
  linalg::Vector y(2);
  EXPECT_EQ(FitLogisticNewton(x, y).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FitLogisticNewton(linalg::Matrix(0, 2), linalg::Vector(0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fm::opt
