#include "core/objective_accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

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

ObjectiveBinPass::ObjectiveBinPass(const data::RegressionDataset& dataset,
                                   ObjectiveKind kind,
                                   const std::vector<size_t>& bin_of_row,
                                   size_t num_bins, size_t max_tasks)
    : dataset_(dataset),
      kind_(kind),
      bin_of_row_(bin_of_row),
      num_bins_(num_bins) {
  FM_CHECK(num_bins >= 1 && max_tasks >= 1);
  FM_CHECK(bin_of_row.empty() || bin_of_row.size() == dataset.size());
  if (dataset.y.size() != dataset.size()) return;  // Finish reports it
  const size_t chunks =
      (dataset.size() + kObjectiveShardRows - 1) / kObjectiveShardRows;
  Partial zero;
  zero.bins.assign(num_bins, ExactObjectiveSum(dataset.dim()));
  partials_.assign(std::min(chunks, max_tasks), zero);
}

void ObjectiveBinPass::RunTask(size_t t) {
  FM_CHECK(t < partials_.size());
  Partial& partial = partials_[t];
  partial.ran = true;
  const data::TaskKind task = TaskForObjectiveKind(kind_);
  const ObjectiveWeights weights = ObjectiveWeightsFor(kind_);
  const size_t n = dataset_.size();
  const double* xs[kObjectiveShardRows];
  double ys[kObjectiveShardRows];
  std::vector<size_t> next(num_bins_ + 1);
  const auto bin_of = [this](size_t row) {
    return bin_of_row_.empty() ? size_t{0} : bin_of_row_[row];
  };
  for (size_t begin = t * kObjectiveShardRows; begin < n;
       begin += partials_.size() * kObjectiveShardRows) {
    const size_t end = std::min(n, begin + kObjectiveShardRows);
    // A counting sort of the chunk's rows by bin, so that each bin's rows
    // reach AddTuples in one call: count, then prefix-sum into each bin's
    // first slot.
    std::fill(next.begin(), next.end(), 0);
    for (size_t row = begin; row < end; ++row) {
      // The contract bounds every term, which the fixed-point sum relies
      // on. Checked here, in the pass that reads the row anyway.
      Status check = data::CheckNormalizationContract(
          dataset_.x.Row(row), dataset_.dim(), dataset_.y[row], task);
      if (!check.ok()) {
        partial.violation_row = row;
        partial.violation = std::move(check);
        return;
      }
      FM_CHECK(bin_of(row) < num_bins_);
      ++next[bin_of(row) + 1];
    }
    for (size_t b = 0; b < num_bins_; ++b) next[b + 1] += next[b];
    for (size_t row = begin; row < end; ++row) {
      const size_t slot = next[bin_of(row)]++;
      xs[slot] = dataset_.x.Row(row);
      ys[slot] = dataset_.y[row];
    }
    // Each next[b] has advanced to the end of bin b's slots.
    size_t from = 0;
    for (size_t b = 0; b < num_bins_; ++b) {
      partial.bins[b].AddTuples(weights, xs + from, ys + from, next[b] - from);
      from = next[b];
    }
  }
}

Result<std::vector<ExactObjectiveSum>> ObjectiveBinPass::Finish() const {
  if (dataset_.y.size() != dataset_.size()) {
    return Status::InvalidArgument(
        std::to_string(dataset_.y.size()) + " labels for " +
        std::to_string(dataset_.size()) + " rows");
  }
  // Each task stops at its own first violation, and its chunks run in row
  // order, so the lowest violating row over all tasks is the dataset's
  // first.
  const Partial* first = nullptr;
  for (const Partial& partial : partials_) {
    FM_CHECK(partial.ran);
    if (!partial.violation.ok() &&
        (first == nullptr || partial.violation_row < first->violation_row)) {
      first = &partial;
    }
  }
  if (first != nullptr) {
    return Status::InvalidArgument("row " +
                                   std::to_string(first->violation_row) +
                                   ": " + first->violation.message());
  }
  std::vector<ExactObjectiveSum> bins(num_bins_,
                                      ExactObjectiveSum(dataset_.dim()));
  for (const Partial& partial : partials_) {
    for (size_t b = 0; b < num_bins_; ++b) bins[b].Add(partial.bins[b]);
  }
  return bins;
}

Result<std::vector<ExactObjectiveSum>> SumObjectiveBins(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    const std::vector<size_t>& bin_of_row, size_t num_bins,
    exec::ThreadPool* pool) {
  exec::ThreadPool& workers =
      pool != nullptr ? *pool : exec::ThreadPool::Global();
  ObjectiveBinPass pass(dataset, kind, bin_of_row, num_bins,
                        workers.num_threads());
  exec::ParallelFor(
      pass.tasks(), [&](size_t t) { pass.RunTask(t); }, workers);
  return pass.Finish();
}

opt::QuadraticModel TrainObjectiveFromBins(
    const std::vector<ExactObjectiveSum>& bins, size_t fold) {
  FM_CHECK(fold < bins.size());
  ExactObjectiveSum train(bins[fold].dim());
  for (size_t g = 0; g < bins.size(); ++g) {
    if (g != fold) train.Add(bins[g]);
  }
  return train.Round();
}

Result<opt::QuadraticModel> CheckedObjective(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool) {
  FM_ASSIGN_OR_RETURN(const std::vector<ExactObjectiveSum> sums,
                      SumObjectiveBins(dataset, kind, {}, 1, pool));
  return sums[0].Round();
}

ObjectiveAccumulator ObjectiveAccumulator::Build(
    const data::RegressionDataset& dataset, ObjectiveKind kind,
    exec::ThreadPool* pool) {
  Result<std::vector<ExactObjectiveSum>> checked =
      SumObjectiveBins(dataset, kind, {}, 1, pool);
  FM_CHECK(checked.ok());
  ObjectiveAccumulator acc;
  acc.dataset_ = &dataset;
  acc.kind_ = kind;
  acc.sum_ = std::move(checked.ValueOrDie()[0]);
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
