#include "log_gen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// The four workload shapes are fixed; see perfbench/README.md for why each
// exists and which layers it stresses.
const ServeSpec kSpecs[] = {
    {"serve_mixed", Mix::kMixed, /*dim=*/10, /*bootstrap_rows=*/100000,
     /*call_size=*/64, /*train_every=*/2000, /*live_target=*/0,
     /*segment_requests=*/500000, /*durable=*/false,
     fm::serve::WalSyncMode::kBatch, /*snapshot_every=*/0,
     /*digest_prefix=*/50000},
    {"serve_churn", Mix::kChurn, /*dim=*/50, /*bootstrap_rows=*/50000,
     /*call_size=*/64, /*train_every=*/1000, /*live_target=*/50000,
     /*segment_requests=*/8000, /*durable=*/false,
     fm::serve::WalSyncMode::kBatch, /*snapshot_every=*/0,
     /*digest_prefix=*/2000},
    {"durable_ingest", Mix::kIngest, /*dim=*/10, /*bootstrap_rows=*/20000,
     /*call_size=*/8, /*train_every=*/1000, /*live_target=*/0,
     /*segment_requests=*/22000, /*durable=*/true,
     fm::serve::WalSyncMode::kBatch, /*snapshot_every=*/5000,
     /*digest_prefix=*/22000},
};

}  // namespace

const ServeSpec* FindServeSpec(const std::string& name) {
  for (const ServeSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

fm::data::RegressionDataset RandomDataset(size_t rows, size_t dim,
                                          uint64_t seed) {
  fm::Rng rng(seed);
  fm::data::RegressionDataset ds;
  ds.x = fm::linalg::Matrix(rows, dim);
  ds.y = fm::linalg::Vector(rows);
  const double scale = 1.0 / std::sqrt(static_cast<double>(dim));
  for (size_t i = 0; i < rows; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      ds.x(i, j) = rng.Uniform(-scale, scale);
      z += (j % 2 ? -4.0 : 4.0) * ds.x(i, j);
    }
    ds.y[i] = std::clamp(0.5 * z + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
  }
  return ds;
}

LogGenerator::LogGenerator(const ServeSpec& spec, uint64_t seed,
                           uint64_t segment)
    : spec_(spec),
      rng_(fm::DeriveSeed(seed, 1000 + segment)),
      next_id_(spec.bootstrap_rows) {
  if (spec_.mix == Mix::kChurn) {
    live_.resize(spec_.bootstrap_rows);
    for (size_t i = 0; i < live_.size(); ++i) live_[i] = i;
  }
}

fm::linalg::Vector LogGenerator::RandomTuple(double* label) {
  fm::linalg::Vector x(spec_.dim);
  const double scale = 1.0 / std::sqrt(static_cast<double>(spec_.dim));
  double z = 0.0;
  for (size_t j = 0; j < spec_.dim; ++j) {
    x[j] = rng_.Uniform(-scale, scale);
    z += (j % 2 ? -4.0 : 4.0) * x[j];
  }
  if (label != nullptr) {
    *label = std::clamp(0.5 * z + rng_.Gaussian(0.0, 0.1), -1.0, 1.0);
  }
  return x;
}

uint64_t LogGenerator::PickLive() {
  return static_cast<size_t>(rng_.UniformInt(live_.size()));
}

fm::serve::Request LogGenerator::Next() {
  using fm::serve::Request;
  const bool train = NextIsTrain();
  const uint64_t p = position_++;
  if (train) {
    return Request::Train(fm::serve::TrainerKind::kFunctionalMechanism, 0.8);
  }
  double y = 0.0;
  switch (spec_.mix) {
    case Mix::kMixed:
      if (p % 8 == 0) {
        fm::linalg::Vector x = RandomTuple(&y);
        ++next_id_;
        return Request::Insert(std::move(x), y);
      }
      return Request::Predict(RandomTuple(nullptr));
    case Mix::kIngest: {
      fm::linalg::Vector x = RandomTuple(&y);
      ++next_id_;
      return Request::Insert(std::move(x), y);
    }
    case Mix::kChurn:
    default: {
      // Slots of each 8: I D I D I D U X. A 4:3:1 insert:delete:update mix
      // would grow the live set by one per 8 requests, so X inserts only
      // while the live set is below its target and deletes otherwise — the
      // live set stays within one of the target (effective 3.5:3.5:1).
      const uint64_t slot = p % 8;
      bool insert = slot % 2 == 0 && slot < 6;
      const bool update = slot == 6;
      if (slot == 7) insert = live_.size() < spec_.live_target;
      if (update) {
        const uint64_t id = live_[PickLive()];
        fm::linalg::Vector x = RandomTuple(&y);
        return Request::Update(id, std::move(x), y);
      }
      if (insert) {
        fm::linalg::Vector x = RandomTuple(&y);
        live_.push_back(next_id_++);
        return Request::Insert(std::move(x), y);
      }
      const size_t pick = PickLive();
      const uint64_t id = live_[pick];
      live_[pick] = live_.back();
      live_.pop_back();
      return Request::Delete(id);
    }
  }
}

std::vector<fm::serve::Request> LogGenerator::NextCall() {
  std::vector<fm::serve::Request> call;
  if (NextIsTrain()) {
    call.push_back(Next());
    return call;
  }
  call.reserve(spec_.call_size);
  while (call.size() < spec_.call_size && !NextIsTrain()) {
    call.push_back(Next());
  }
  return call;
}

}  // namespace perfbench
