#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fm::data {

namespace {

// Slack on the §3 bounds for the round-off of normalization itself.
constexpr double kContractTolerance = 1e-9;

}  // namespace

Status CheckNormalizationContract(const double* x, size_t dim, double y,
                                  TaskKind task) {
  double norm_sq = 0.0;
  for (size_t j = 0; j < dim; ++j) norm_sq += x[j] * x[j];
  // A non-finite feature makes norm_sq ∞ or NaN, which fails the negated
  // comparison, so the sum needs no per-feature test; this one only picks
  // the message.
  if (!(norm_sq <= (1.0 + kContractTolerance) * (1.0 + kContractTolerance))) {
    for (size_t j = 0; j < dim; ++j) {
      if (!std::isfinite(x[j])) {
        return Status::InvalidArgument("feature values must be finite");
      }
    }
    return Status::InvalidArgument(
        "‖x‖₂ > 1 violates the §3 normalization contract; run tuples "
        "through data::Normalizer first");
  }
  if (!std::isfinite(y)) return Status::InvalidArgument("label must be finite");
  switch (task) {
    case TaskKind::kLinear:
      if (y < -1.0 - kContractTolerance || y > 1.0 + kContractTolerance) {
        return Status::InvalidArgument(
            "linear-task label outside [−1, 1] violates the §3 contract");
      }
      break;
    case TaskKind::kLogistic:
      if (y != 0.0 && y != 1.0) {
        return Status::InvalidArgument("logistic-task label must be 0 or 1");
      }
      break;
  }
  return Status::OK();
}

RegressionDataset RegressionDataset::Select(
    const std::vector<size_t>& rows) const {
  FM_CHECK(y.size() == x.rows());
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

KFoldPartition::KFoldPartition(size_t n, size_t k, Rng& rng)
    : folds_(k), order_(n) {
  FM_CHECK(k >= 2 && k <= n);
  std::iota(order_.begin(), order_.end(), 0);
  rng.Shuffle(order_);
}

std::vector<size_t> KFoldPartition::TestRows(size_t fold) const {
  FM_CHECK(fold < folds_);
  return std::vector<size_t>(order_.begin() + Begin(fold),
                             order_.begin() + Begin(fold + 1));
}

std::vector<size_t> KFoldPartition::TrainRows(size_t fold) const {
  FM_CHECK(fold < folds_);
  std::vector<size_t> rows;
  rows.reserve(order_.size() - (Begin(fold + 1) - Begin(fold)));
  rows.insert(rows.end(), order_.begin(), order_.begin() + Begin(fold));
  rows.insert(rows.end(), order_.begin() + Begin(fold + 1), order_.end());
  return rows;
}

std::vector<size_t> KFoldPartition::FoldOfEachRow() const {
  std::vector<size_t> fold_of(order_.size());
  for (size_t f = 0; f < folds_; ++f) {
    for (size_t p = Begin(f); p < Begin(f + 1); ++p) fold_of[order_[p]] = f;
  }
  return fold_of;
}

std::vector<Split> KFoldSplits(size_t n, size_t k, Rng& rng) {
  const KFoldPartition partition(n, k, rng);
  std::vector<Split> splits(k);
  for (size_t f = 0; f < k; ++f) {
    splits[f].test = partition.TestRows(f);
    splits[f].train = partition.TrainRows(f);
  }
  return splits;
}

}  // namespace fm::data
