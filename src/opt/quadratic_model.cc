#include "opt/quadratic_model.h"

#include "linalg/cholesky.h"

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

Result<linalg::Vector> QuadraticModel::Minimize() const {
  linalg::Matrix two_m = m;
  two_m *= 2.0;
  FM_ASSIGN_OR_RETURN(const linalg::Cholesky chol,
                      linalg::Cholesky::Compute(two_m));
  return chol.Solve(-alpha);
}

}  // namespace fm::opt
