#include "core/objective_accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "core/taylor.h"
#include "exec/parallel.h"
#include "linalg/kernels.h"

namespace fm::core {

ObjectiveKind ObjectiveKindForTask(data::TaskKind task) {
  return task == data::TaskKind::kLinear ? ObjectiveKind::kLinear
                                         : ObjectiveKind::kTruncatedLogistic;
}

ObjectiveWeights ObjectiveWeightsFor(ObjectiveKind kind) {
  ObjectiveWeights weights;
  if (kind == ObjectiveKind::kLinear) {
    // (y − xᵀω)² = ωᵀ(x xᵀ)ω − 2y xᵀω + y².
    weights.m_scale = 1.0;
    weights.alpha_label = -2.0;
    weights.beta_label_square = 1.0;
  } else {
    // log2 + ½xᵀω + ⅛(xᵀω)² − y·xᵀω  (Equation 10 summed per tuple).
    weights.m_scale = LogisticF1SecondDerivative0() / 2.0;  // 1/8
    weights.alpha_offset = LogisticF1Derivative0();         // ½
    weights.alpha_label = -1.0;
    weights.beta_offset = LogisticF1Value0();  // log 2
  }
  return weights;
}

double RoundFixedPoint(Int128 units) {
  constexpr int kFractionBits =
      linalg::kernels::kExactHiBits + linalg::kernels::kExactLoBits;
  const bool negative = units < 0;
  // Magnitude as unsigned; also right for the most negative value.
  __extension__ typedef unsigned __int128 Uint128;
  Uint128 magnitude =
      negative ? Uint128{0} - static_cast<Uint128>(units)
               : static_cast<Uint128>(units);
  // Keep the top 53 significant bits and round the rest away, to nearest
  // with ties to even, by hand: the conversion below is then exact.
  const uint64_t high = static_cast<uint64_t>(magnitude >> 64);
  const uint64_t low = static_cast<uint64_t>(magnitude);
  const int length = high != 0  ? 128 - __builtin_clzll(high)
                     : low != 0 ? 64 - __builtin_clzll(low)
                                : 0;
  const int shift = std::max(0, length - 53);
  if (shift > 0) {
    const Uint128 dropped = magnitude & ((Uint128{1} << shift) - 1);
    const Uint128 half = Uint128{1} << (shift - 1);
    magnitude >>= shift;
    if (dropped > half || (dropped == half && (magnitude & 1) != 0)) {
      ++magnitude;  // may reach 2⁵³, which is still exact
    }
  }
  // Both the integer→double conversion (< 2⁵⁴) and the power-of-two
  // scaling are exact: the smallest nonzero result, 2⁻⁸², is far from the
  // subnormal range.
  const double value = std::ldexp(static_cast<double>(
                                      static_cast<uint64_t>(magnitude)),
                                  shift - kFractionBits);
  return negative ? -value : value;
}

ExactObjectiveSum::ExactObjectiveSum(size_t dim)
    : dim_(dim), units_(NumObjectiveCoefficients(dim), 0) {}

void ExactObjectiveSum::AddTuples(const ObjectiveWeights& weights,
                                  const double* const* xs, const double* ys,
                                  size_t count, bool subtract) {
  namespace kernels = linalg::kernels;
  constexpr size_t kB = kernels::kExactBatch;
  // With ‖x‖₂ ≤ 1 and |y| ≤ 1, these bounds keep every term below 4.
  FM_CHECK(std::fabs(weights.m_scale) <= 2.0 &&
           std::fabs(weights.alpha_offset) + std::fabs(weights.alpha_label) <=
               2.0 &&
           std::fabs(weights.beta_offset) +
                   std::fabs(weights.beta_label_square) <=
               2.0);
  if (count == 0) return;
  const size_t coefficients = units_.size();
  // Chunk words: hi then lo, zeroed per chunk of at most kExactChunkTuples
  // tuples (which cannot overflow them), then folded into the 128-bit sum.
  std::vector<int64_t> words(2 * coefficients);
  // A short final batch is padded with the zero tuple under zero weights:
  // every padded term is exactly 0, so it adds nothing.
  const std::vector<double> zero_tuple(dim_, 0.0);
  for (size_t begin = 0; begin < count; begin += kernels::kExactChunkTuples) {
    const size_t end = std::min(count, begin + kernels::kExactChunkTuples);
    std::fill(words.begin(), words.end(), 0);
    for (size_t i = begin; i < end; i += kB) {
      const double* batch_xs[kB];
      double alpha_bias[kB];
      double beta[kB];
      for (size_t r = 0; r < kB; ++r) {
        if (i + r < end) {
          const double y = ys[i + r];
          batch_xs[r] = xs[i + r];
          alpha_bias[r] = weights.alpha_offset + weights.alpha_label * y;
          beta[r] = weights.beta_offset + weights.beta_label_square * (y * y);
        } else {
          batch_xs[r] = zero_tuple.data();
          alpha_bias[r] = 0.0;
          beta[r] = 0.0;
        }
      }
      kernels::ExactTupleAccumulateBatch(words.data(),
                                         words.data() + coefficients,
                                         batch_xs, dim_, weights.m_scale,
                                         alpha_bias, beta);
    }
    constexpr Int128 kHiUnit = Int128{1} << kernels::kExactLoBits;
    for (size_t idx = 0; idx < coefficients; ++idx) {
      const Int128 chunk = static_cast<Int128>(words[idx]) * kHiUnit +
                           words[coefficients + idx];
      units_[idx] = subtract ? units_[idx] - chunk : units_[idx] + chunk;
    }
  }
}

void ExactObjectiveSum::Add(const ExactObjectiveSum& other) {
  FM_CHECK(other.dim_ == dim_);
  for (size_t idx = 0; idx < units_.size(); ++idx) {
    units_[idx] += other.units_[idx];
  }
}

opt::QuadraticModel ExactObjectiveSum::Round() const {
  opt::QuadraticModel model;
  model.m = linalg::Matrix(dim_, dim_);
  model.alpha = linalg::Vector(dim_);
  size_t idx = 0;
  for (size_t i = 0; i < dim_; ++i) {
    for (size_t j = i; j < dim_; ++j, ++idx) {
      const double value = RoundFixedPoint(units_[idx]);
      model.m(i, j) = value;
      model.m(j, i) = value;
    }
  }
  for (size_t j = 0; j < dim_; ++j, ++idx) {
    model.alpha[j] = RoundFixedPoint(units_[idx]);
  }
  model.beta = RoundFixedPoint(units_[idx]);
  return model;
}

void SumChunks(size_t num_chunks,
               const std::function<void(size_t, ExactObjectiveSum*)>& fill,
               ExactObjectiveSum* sum, exec::ThreadPool* pool) {
  if (num_chunks == 0) return;
  if (num_chunks == 1) {
    fill(0, sum);
    return;
  }
  // One partial per task, not per chunk: task t fills chunks t, t + T, …
  // into its own partial. Any grouping of exact sums gives the same bits.
  exec::ThreadPool& workers =
      pool != nullptr ? *pool : exec::ThreadPool::Global();
  const size_t tasks = std::min(num_chunks, workers.num_threads());
  std::vector<ExactObjectiveSum> partials(tasks,
                                          ExactObjectiveSum(sum->dim()));
  exec::ParallelFor(
      tasks,
      [&](size_t t) {
        for (size_t c = t; c < num_chunks; c += tasks) fill(c, &partials[t]);
      },
      workers);
  for (const ExactObjectiveSum& partial : partials) sum->Add(partial);
}

ObjectiveAccumulator ObjectiveAccumulator::Build(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool) {
  FM_CHECK(dataset.y.size() == dataset.size());
  const data::TaskKind task = TaskForObjectiveKind(kind);
  const ObjectiveWeights weights = ObjectiveWeightsFor(kind);
  ObjectiveAccumulator acc;
  acc.dataset_ = &dataset;
  acc.kind_ = kind;
  acc.sum_ = ExactObjectiveSum(dataset.dim());
  const size_t n = dataset.size();
  SumChunks(
      (n + kObjectiveShardRows - 1) / kObjectiveShardRows,
      [&](size_t c, ExactObjectiveSum* partial) {
        const size_t begin = c * kObjectiveShardRows;
        const size_t end = std::min(n, begin + kObjectiveShardRows);
        const double* xs[kObjectiveShardRows];
        for (size_t row = begin; row < end; ++row) {
          xs[row - begin] = dataset.x.Row(row);
          // The contract bounds every term, which the fixed-point sum
          // relies on. Checked here, in the pass that reads the row anyway.
          FM_CHECK(data::CheckNormalizationContract(
                       xs[row - begin], dataset.dim(), dataset.y[row], task)
                       .ok());
        }
        partial->AddTuples(weights, xs, dataset.y.raw() + begin,
                           end - begin);
      },
      &acc.sum_, pool);
  return acc;
}

opt::QuadraticModel ObjectiveAccumulator::Global() const {
  return sum_.Round();
}

opt::QuadraticModel ObjectiveAccumulator::TrainObjectiveForFold(
    const std::vector<size_t>& test_rows) const {
  std::vector<const double*> xs(test_rows.size());
  std::vector<double> ys(test_rows.size());
  for (size_t i = 0; i < test_rows.size(); ++i) {
    FM_CHECK(test_rows[i] < dataset_->size());
    xs[i] = dataset_->x.Row(test_rows[i]);
    ys[i] = dataset_->y[test_rows[i]];
  }
  ExactObjectiveSum train = sum_;
  train.AddTuples(ObjectiveWeightsFor(kind_), xs.data(), ys.data(),
                  test_rows.size(), /*subtract=*/true);
  return train.Round();
}

}  // namespace fm::core
