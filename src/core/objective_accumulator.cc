#include "core/objective_accumulator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/taylor.h"
#include "exec/parallel.h"
#include "linalg/kernels.h"

namespace fm::core {

ObjectiveKind ObjectiveKindForTask(data::TaskKind task) {
  return task == data::TaskKind::kLinear ? ObjectiveKind::kLinear
                                         : ObjectiveKind::kTruncatedLogistic;
}

void ObjectiveTupleParams(ObjectiveKind kind, double y, double* m_scale,
                          double* alpha_bias, double* beta) {
  switch (kind) {
    case ObjectiveKind::kLinear:
      // (y − xᵀω)² = ωᵀ(x xᵀ)ω − 2y xᵀω + y².
      *m_scale = 1.0;
      *alpha_bias = -2.0 * y;
      *beta = y * y;
      break;
    case ObjectiveKind::kTruncatedLogistic:
    default:
      // log2 + ½xᵀω + ⅛(xᵀω)² − y·xᵀω  (Equation 10 summed per tuple).
      *m_scale = LogisticF1SecondDerivative0() / 2.0;  // 1/8
      *alpha_bias = LogisticF1Derivative0() - y;       // ½ − y
      *beta = LogisticF1Value0();                      // log 2
      break;
  }
}

void AccumulateTupleContribution(ObjectiveKind kind, const double* x,
                                 size_t dim, double y, double* sum,
                                 double* comp) {
  double m_scale, alpha_bias, beta;
  ObjectiveTupleParams(kind, y, &m_scale, &alpha_bias, &beta);
  // The whole per-tuple contribution — the rank-1 slice of a shard's
  // rank-k update (M's upper triangle at m_scale, then α at alpha_bias,
  // then β) — lands through one fused kernel call. The kernel keeps the
  // per-tuple Neumaier compensation and is bit-identical to its scalar
  // oracle, so the ≤1-ulp fold-derivation guarantee and the thread-count
  // determinism contract are untouched.
  linalg::kernels::CompensatedTupleUpdate(sum, comp, x, dim, m_scale,
                                          alpha_bias, beta);
}

void AccumulateTupleContributionBatch(ObjectiveKind kind,
                                      const double* const* xs, size_t dim,
                                      const double* ys, double* sum,
                                      double* comp) {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  const double* batch_xs[kB];
  double alpha_bias[kB], beta[kB];
  double m_scale = 0.0;
  for (size_t r = 0; r < kB; ++r) {
    batch_xs[r] = xs[r];
    ObjectiveTupleParams(kind, ys[r], &m_scale, &alpha_bias[r], &beta[r]);
  }
  linalg::kernels::CompensatedTupleUpdateBatch(sum, comp, batch_xs, dim,
                                               m_scale, alpha_bias, beta);
}

opt::QuadraticModel RoundObjectiveCoefficients(size_t dim, const double* sum,
                                               const double* comp) {
  opt::QuadraticModel model;
  model.m = linalg::Matrix(dim, dim);
  model.alpha = linalg::Vector(dim);
  size_t idx = 0;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = i; j < dim; ++j, ++idx) {
      const double value = sum[idx] + comp[idx];
      model.m(i, j) = value;
      model.m(j, i) = value;
    }
  }
  for (size_t j = 0; j < dim; ++j, ++idx) {
    model.alpha[j] = sum[idx] + comp[idx];
  }
  model.beta = sum[idx] + comp[idx];
  return model;
}

void ObjectiveAccumulator::AccumulateTuple(size_t row,
                                           std::vector<double>& sum,
                                           std::vector<double>& comp) const {
  AccumulateTupleContribution(kind_, dataset_->x.Row(row), dim_,
                              dataset_->y[row], sum.data(), comp.data());
}

void ObjectiveAccumulator::AccumulateBatch(
    const size_t rows[linalg::kernels::kCompensatedBatch],
    std::vector<double>& sum, std::vector<double>& comp) const {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  const double* xs[kB];
  double ys[kB];
  for (size_t r = 0; r < kB; ++r) {
    FM_CHECK(rows[r] < dataset_->size());
    xs[r] = dataset_->x.Row(rows[r]);
    ys[r] = dataset_->y[rows[r]];
  }
  AccumulateTupleContributionBatch(kind_, xs, dim_, ys, sum.data(),
                                   comp.data());
}

void ObjectiveAccumulator::AccumulateRange(size_t begin, size_t end,
                                           std::vector<double>& sum,
                                           std::vector<double>& comp) const {
  // Full batches go through the rank-kCompensatedBatch kernel (amortizing
  // the coefficient-stream loads); compensation stays per tuple, so batched
  // and row-at-a-time accumulation are bit-identical.
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  size_t row = begin;
  for (; row + kB <= end; row += kB) {
    size_t batch[kB];
    for (size_t r = 0; r < kB; ++r) batch[r] = row + r;
    AccumulateBatch(batch, sum, comp);
  }
  for (; row < end; ++row) AccumulateTuple(row, sum, comp);
}

void ObjectiveAccumulator::AccumulateList(const std::vector<size_t>& rows,
                                          std::vector<double>& sum,
                                          std::vector<double>& comp) const {
  constexpr size_t kB = linalg::kernels::kCompensatedBatch;
  size_t i = 0;
  for (; i + kB <= rows.size(); i += kB) {
    AccumulateBatch(rows.data() + i, sum, comp);
  }
  for (; i < rows.size(); ++i) {
    const size_t row = rows[i];
    FM_CHECK(row < dataset_->size());
    AccumulateTuple(row, sum, comp);
  }
}

ObjectiveAccumulator ObjectiveAccumulator::Build(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool) {
  ObjectiveAccumulator acc;
  acc.dataset_ = &dataset;
  acc.kind_ = kind;
  acc.dim_ = dataset.dim();
  const size_t coefficients = acc.num_coefficients();
  acc.sum_.assign(coefficients, 0.0);
  acc.comp_.assign(coefficients, 0.0);

  const size_t n = dataset.size();
  if (n == 0) return acc;

  // One compensated partial sum per fixed-size shard, filled in parallel;
  // shard boundaries depend only on n, so any thread count produces the same
  // partials and the serial in-order reduction the same total.
  const size_t num_shards = (n + kObjectiveShardRows - 1) / kObjectiveShardRows;
  std::vector<std::vector<double>> shard_sums(
      num_shards, std::vector<double>(coefficients, 0.0));
  std::vector<std::vector<double>> shard_comps(
      num_shards, std::vector<double>(coefficients, 0.0));
  exec::ParallelFor(
      num_shards,
      [&](size_t s) {
        const size_t begin = s * kObjectiveShardRows;
        const size_t end = std::min(n, begin + kObjectiveShardRows);
        acc.AccumulateRange(begin, end, shard_sums[s], shard_comps[s]);
      },
      pool != nullptr ? *pool : exec::ThreadPool::Global());

  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t idx = 0; idx < coefficients; ++idx) {
      CompensatedAdd(acc.sum_[idx], acc.comp_[idx], shard_sums[s][idx]);
      acc.comp_[idx] += shard_comps[s][idx];
    }
  }
  return acc;
}

opt::QuadraticModel ObjectiveAccumulator::Global() const {
  return RoundObjectiveCoefficients(dim_, sum_.data(), comp_.data());
}

opt::QuadraticModel ObjectiveAccumulator::SliceObjective(
    const std::vector<size_t>& rows) const {
  const size_t coefficients = num_coefficients();
  std::vector<double> sum(coefficients, 0.0);
  std::vector<double> comp(coefficients, 0.0);
  AccumulateList(rows, sum, comp);
  return RoundObjectiveCoefficients(dim_, sum.data(), comp.data());
}

opt::QuadraticModel ObjectiveAccumulator::TrainObjectiveForFold(
    const std::vector<size_t>& test_rows) const {
  const size_t coefficients = num_coefficients();
  std::vector<double> slice_sum(coefficients, 0.0);
  std::vector<double> slice_comp(coefficients, 0.0);
  AccumulateList(test_rows, slice_sum, slice_comp);
  // global − slice, with both compensations carried through: the rounded
  // result is within 1 ulp of the exact training-tuple sum, so no
  // catastrophic cancellation can surface (the slice is a strict subset, and
  // what the subtraction cancels the compensation terms restore).
  std::vector<double> sum(coefficients);
  std::vector<double> comp(coefficients);
  for (size_t idx = 0; idx < coefficients; ++idx) {
    sum[idx] = sum_[idx];
    comp[idx] = comp_[idx] - slice_comp[idx];
    CompensatedAdd(sum[idx], comp[idx], -slice_sum[idx]);
  }
  return RoundObjectiveCoefficients(dim_, sum.data(), comp.data());
}

}  // namespace fm::core
