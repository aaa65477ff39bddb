#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fm::data {

namespace {

// Slack on the §3 bounds for the round-off of normalization itself.
constexpr double kContractTolerance = 1e-9;

// The §3 rule: nullptr when the tuple satisfies the contract, otherwise the
// message naming the first clause it violates. Returning a literal keeps
// Status construction out of SatisfiesNormalizationContract's per-row loop.
inline const char* ContractViolation(const double* x, size_t dim, double y,
                                     TaskKind task) {
  double norm_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) norm_sq += x[j] * x[j];
  // A non-finite feature makes norm_sq ∞ or NaN, which fails the negated
  // comparison, so the sum needs no per-feature test; this one only picks
  // the message.
  if (!(norm_sq <= (1.0 + kContractTolerance) * (1.0 + kContractTolerance))) {
    for (size_t j = 0; j < dim; ++j) {
      if (!std::isfinite(x[j])) return "feature values must be finite";
    }
    return "‖x‖₂ > 1 violates the §3 normalization contract; run tuples "
           "through data::Normalizer first";
  }
  if (!std::isfinite(y)) return "label must be finite";
  switch (task) {
    case TaskKind::kLinear:
      if (y < -1.0 - kContractTolerance || y > 1.0 + kContractTolerance) {
        return "linear-task label outside [−1, 1] violates the §3 contract";
      }
      break;
    case TaskKind::kLogistic:
      if (y != 0.0 && y != 1.0) return "logistic-task label must be 0 or 1";
      break;
  }
  return nullptr;
}

}  // namespace

Status CheckNormalizationContract(const double* x, size_t dim, double y,
                                  TaskKind task) {
  const char* violation = ContractViolation(x, dim, y, task);
  return violation == nullptr ? Status::OK()
                              : Status::InvalidArgument(violation);
}

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

bool RegressionDataset::SatisfiesNormalizationContract(TaskKind task) const {
  if (y.size() != x.rows()) return false;
  for (size_t i = 0; i < x.rows(); ++i) {
    if (ContractViolation(x.Row(i), x.cols(), y[i], task) != nullptr) {
      return false;
    }
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
