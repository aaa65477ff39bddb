#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fm::data {

RegressionDataset RegressionDataset::Select(
    const std::vector<size_t>& rows) const {
  RegressionDataset out;
  out.x = linalg::Matrix(rows.size(), x.cols());
  out.y = linalg::Vector(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    FM_CHECK(rows[r] < x.rows());
    for (size_t c = 0; c < x.cols(); ++c) out.x(r, c) = x(rows[r], c);
    out.y[r] = y[rows[r]];
  }
  return out;
}

RegressionDataset RegressionDataset::Sample(double rate, Rng& rng) const {
  const double clamped = std::clamp(rate, 0.0, 1.0);
  const size_t target =
      static_cast<size_t>(std::ceil(clamped * static_cast<double>(size())));
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  order.resize(target);
  return Select(order);
}

bool RegressionDataset::SatisfiesNormalizationContract(double tol) const {
  if (y.size() != x.rows()) return false;
  for (size_t i = 0; i < x.rows(); ++i) {
    double ssq = 0.0;
    for (size_t j = 0; j < x.cols(); ++j) ssq += x(i, j) * x(i, j);
    // Negated comparisons, so a NaN feature or label fails them too.
    if (!(std::sqrt(ssq) <= 1.0 + tol)) return false;
    if (!(y[i] >= -1.0 - tol && y[i] <= 1.0 + tol)) return false;
  }
  return true;
}

std::vector<Split> KFoldSplits(size_t n, size_t k, Rng& rng) {
  FM_CHECK(k >= 2 && k <= n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  // Fold f owns the contiguous chunk [f*n/k, (f+1)*n/k) of the shuffled
  // order, so fold sizes differ by at most one.
  std::vector<Split> splits(k);
  for (size_t f = 0; f < k; ++f) {
    const size_t begin = f * n / k;
    const size_t end = (f + 1) * n / k;
    auto& split = splits[f];
    split.test.assign(order.begin() + begin, order.begin() + end);
    split.train.reserve(n - (end - begin));
    split.train.insert(split.train.end(), order.begin(), order.begin() + begin);
    split.train.insert(split.train.end(), order.begin() + end, order.end());
  }
  return splits;
}

}  // namespace fm::data
