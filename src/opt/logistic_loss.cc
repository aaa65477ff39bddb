#include "opt/logistic_loss.h"

#include <cmath>

#include "common/logging.h"
#include "linalg/cholesky.h"
#include "linalg/kernels.h"

namespace fm::opt {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double Log1pExp(double z) {
  if (z > 35.0) return z;           // e^{-z} negligible
  if (z < -35.0) return std::exp(z);  // log1p(e^z) ≈ e^z
  return std::log1p(std::exp(z));
}

LogisticObjective::LogisticObjective(const linalg::Matrix& x,
                                     const linalg::Vector& y, double ridge)
    : x_(x), y_(y), ridge_(ridge) {
  FM_CHECK(x.rows() == y.size());
}

double LogisticObjective::Value(const linalg::Vector& omega) const {
  FM_CHECK(omega.size() == x_.cols());
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  double sum = 0.0;
  // Margins via the batched matvec kernel (each row's reduction stays
  // sequential — the same bits as a per-row Dot), then one serial pass for
  // the loss terms in row order.
  linalg::Vector z(n);
  linalg::kernels::MatVec(x_.data().data(), d, n, d, omega.raw(), z.raw());
  for (size_t i = 0; i < n; ++i) sum += Log1pExp(z[i]) - y_[i] * z[i];
  if (ridge_ > 0.0) sum += 0.5 * ridge_ * Dot(omega, omega);
  return sum;
}

linalg::Vector LogisticObjective::Gradient(const linalg::Vector& omega) const {
  FM_CHECK(omega.size() == x_.cols());
  const size_t n = x_.rows();
  const size_t d = x_.cols();
  linalg::Vector g(d);
  // Fused matvec + weighted reduction: margins z = Xω through the batched
  // matvec kernel, then g += (σ(z_i) − y_i)·x_i row by row through the
  // Axpy kernel. Rows are consumed in order, so each g(j) chain matches the
  // per-row Dot loop exactly.
  linalg::Vector z(n);
  linalg::kernels::MatVec(x_.data().data(), d, n, d, omega.raw(), z.raw());
  for (size_t i = 0; i < n; ++i) {
    const double r = Sigmoid(z[i]) - y_[i];
    linalg::kernels::Axpy(g.raw(), r, x_.Row(i), d);
  }
  if (ridge_ > 0.0) g.Axpy(ridge_, omega);
  return g;
}

linalg::Matrix LogisticObjective::Hessian(const linalg::Vector& omega) const {
  FM_CHECK(omega.size() == x_.cols());
  const size_t d = x_.cols();
  linalg::Matrix h(d, d);
  for (size_t i = 0; i < x_.rows(); ++i) {
    const double* row = x_.Row(i);
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) z += row[j] * omega[j];
    const double s = Sigmoid(z);
    const double w = s * (1.0 - s);
    if (w == 0.0) continue;
    for (size_t j = 0; j < d; ++j) {
      const double wj = w * row[j];
      if (wj == 0.0) continue;
      double* hrow = h.Row(j);
      for (size_t k = j; k < d; ++k) hrow[k] += wj * row[k];
    }
  }
  h.SymmetrizeFromUpper();
  if (ridge_ > 0.0) h.AddToDiagonal(ridge_);
  return h;
}

Result<linalg::Vector> FitLogisticNewton(const linalg::Matrix& x,
                                         const linalg::Vector& y,
                                         double ridge,
                                         const NewtonOptions& options) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("FitLogisticNewton: row/label mismatch");
  }
  if (x.rows() == 0) {
    return Status::FailedPrecondition("FitLogisticNewton: empty dataset");
  }
  const LogisticObjective objective(x, y, ridge);
  const double n = static_cast<double>(x.rows());
  linalg::Vector omega(x.cols());

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const linalg::Vector grad = objective.Gradient(omega);
    if (grad.NormInf() <= options.gradient_tolerance * n) break;

    linalg::Matrix hess = objective.Hessian(omega);
    // Damp until the Hessian factorizes (it is PSD; damping handles the
    // rank-deficient case, e.g. separable data or collinear features).
    double damping = options.initial_damping * (1.0 + hess.MaxAbs());
    Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(hess);
    while (!chol.ok()) {
      hess.AddToDiagonal(damping);
      damping *= 10.0;
      if (!std::isfinite(damping)) {
        return Status::NumericalError("logistic Hessian damping diverged");
      }
      chol = linalg::Cholesky::Compute(hess);
    }
    linalg::Vector step = chol.ValueOrDie().Solve(grad);

    // Backtracking line search on the Newton direction (guards against
    // overshoot early on, when the quadratic model is poor).
    const double f0 = objective.Value(omega);
    const double slope = Dot(grad, step);
    double t = 1.0;
    linalg::Vector candidate = omega;
    for (int ls = 0; ls < 40; ++ls) {
      candidate = omega;
      candidate.Axpy(-t, step);
      if (objective.Value(candidate) <= f0 - 1e-4 * t * slope) break;
      t *= 0.5;
    }
    omega = candidate;
  }
  return omega;
}

}  // namespace fm::opt
