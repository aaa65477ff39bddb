// Workload shapes of the serve workloads and their request-log generator.
// The generated log is a pure function of (workload, seed): the generator
// predicts the TupleIds the service will assign (bootstrap rows get
// 0..n−1, every insert the next id), so delete and update victims need no
// feedback from the service.
#ifndef PERFBENCH_LOG_GEN_H_
#define PERFBENCH_LOG_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "serve/service.h"
#include "serve/wal.h"

namespace perfbench {

enum class Mix {
  kMixed,   // 1 insert per 8 requests, predicts otherwise
  kChurn,   // inserts, deletes and updates over a live set held constant
  kIngest,  // inserts only
};

struct ServeSpec {
  const char* name;
  Mix mix;
  size_t dim;
  size_t bootstrap_rows;
  size_t call_size;     // requests per ExecuteLog call
  /// A train at position 0 (so predicts have a model) and at every
  /// position p with p % train_every == train_every − 1.
  size_t train_every;
  size_t live_target;   // kChurn: live set held at this size
  /// A fresh service serves each segment of this many requests, so every
  /// run does whole units of the same work and memory stays bounded.
  size_t segment_requests;
  bool durable;
  fm::serve::WalSyncMode sync;
  uint64_t snapshot_every;
  /// Requests of the first segment replayed at FM_THREADS=1 for the
  /// determinism check.
  size_t digest_prefix;
};

/// nullptr when `name` is not a serve workload.
const ServeSpec* FindServeSpec(const std::string& name);

/// Seeded synthetic tuples satisfying the §3 linear contract (‖x‖ ≤ 1,
/// y ∈ [−1, 1]).
fm::data::RegressionDataset RandomDataset(size_t rows, size_t dim,
                                          uint64_t seed);

class LogGenerator {
 public:
  /// `segment` selects an independent stream for each service segment.
  LogGenerator(const ServeSpec& spec, uint64_t seed, uint64_t segment);

  /// Stream position of the next request.
  uint64_t position() const { return position_; }
  bool NextIsTrain() const {
    return position_ == 0 ||
           position_ % spec_.train_every == spec_.train_every - 1;
  }
  fm::serve::Request Next();

  /// The next client call: one train on its own, or up to call_size other
  /// requests (cut short before the next train). Never empty.
  std::vector<fm::serve::Request> NextCall();

  size_t live_size() const { return live_.size(); }

 private:
  fm::linalg::Vector RandomTuple(double* label);
  uint64_t PickLive();

  ServeSpec spec_;
  fm::Rng rng_;
  uint64_t position_ = 0;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> live_;  // kChurn only
};

}  // namespace perfbench

#endif  // PERFBENCH_LOG_GEN_H_
