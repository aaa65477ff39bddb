#include "opt/quadratic_model.h"

#include "linalg/cholesky.h"
#include "linalg/solve.h"

namespace fm::opt {

double QuadraticModel::Evaluate(const linalg::Vector& omega) const {
  return linalg::QuadraticForm(m, omega) + linalg::Dot(alpha, omega) + beta;
}

linalg::Vector QuadraticModel::Gradient(const linalg::Vector& omega) const {
  linalg::Vector g = linalg::MatVec(m, omega);
  g *= 2.0;
  g += alpha;
  return g;
}

bool QuadraticModel::IsPositiveDefinite() const {
  return linalg::IsPositiveDefinite(m);
}

Result<linalg::Vector> QuadraticModel::Minimize() const {
  linalg::Matrix two_m = m;
  two_m *= 2.0;
  return linalg::SolveSpd(two_m, -alpha);
}

}  // namespace fm::opt
