// The compensated objective sum the serving store and the fold cache kept
// before their sums became exact, kept as a test reference: per coefficient,
// a Neumaier-compensated (sum, comp) pair over the tuples in row order,
// rounded as sum + comp. core::ExactObjectiveSum must round to within 1 ulp
// of it.
#ifndef FM_TESTS_NEUMAIER_REFERENCE_H_
#define FM_TESTS_NEUMAIER_REFERENCE_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/objective_accumulator.h"
#include "data/dataset.h"
#include "opt/quadratic_model.h"

namespace fm {

inline opt::QuadraticModel NeumaierObjective(const data::RegressionDataset& ds,
                                             core::ObjectiveKind kind) {
  const size_t d = ds.dim();
  const size_t coefficients = core::NumObjectiveCoefficients(d);
  std::vector<double> sum(coefficients, 0.0);
  std::vector<double> comp(coefficients, 0.0);
  const auto add = [&](size_t idx, double v) {
    const double t = sum[idx] + v;
    comp[idx] += std::fabs(sum[idx]) >= std::fabs(v) ? (sum[idx] - t) + v
                                                     : (v - t) + sum[idx];
    sum[idx] = t;
  };
  const core::ObjectiveWeights weights = core::ObjectiveWeightsFor(kind);
  for (size_t row = 0; row < ds.size(); ++row) {
    const double y = ds.y[row];
    const double alpha_bias = weights.alpha_offset + weights.alpha_label * y;
    const double beta =
        weights.beta_offset + weights.beta_label_square * (y * y);
    const double* x = ds.x.Row(row);
    size_t idx = 0;
    for (size_t i = 0; i < d; ++i) {
      const double xi = weights.m_scale * x[i];
      for (size_t j = i; j < d; ++j) add(idx++, xi * x[j]);
    }
    for (size_t j = 0; j < d; ++j) add(idx++, alpha_bias * x[j]);
    add(idx, beta);
  }
  opt::QuadraticModel model;
  model.m = linalg::Matrix(d, d);
  model.alpha = linalg::Vector(d);
  size_t idx = 0;
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j, ++idx) {
      model.m(i, j) = sum[idx] + comp[idx];
      model.m(j, i) = model.m(i, j);
    }
  }
  for (size_t j = 0; j < d; ++j, ++idx) model.alpha[j] = sum[idx] + comp[idx];
  model.beta = sum[idx] + comp[idx];
  return model;
}

}  // namespace fm

#endif  // FM_TESTS_NEUMAIER_REFERENCE_H_
