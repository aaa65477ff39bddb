#ifndef FM_OBS_METRICS_H_
#define FM_OBS_METRICS_H_

/// \file metrics.h
/// Sharded, thread-safe process metrics: Counter, Gauge, and a
/// fixed-boundary log-scale latency Histogram, collected in a
/// MetricsRegistry with Prometheus-text and JSON exporters.
///
/// Design rules (see docs/OBSERVABILITY.md):
///  - The write path is lock-free: one relaxed atomic add on a
///    cache-line-padded per-shard cell. No mutex, no allocation.
///  - Metric objects are created once through the registry and live as
///    long as the registry; callers cache raw pointers and update them
///    from any thread.
///  - Telemetry is observation-only. Nothing read out of a metric may
///    feed request execution — responses must be byte-identical with
///    metrics enabled or disabled (enforced by fuzz_determinism).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_annotations.h"

namespace fm {
namespace obs {

/// Number of independent cells a hot metric is split across. Threads are
/// assigned cells round-robin at first touch, so up to kMetricShards
/// writers proceed with zero cache-line contention.
inline constexpr size_t kMetricShards = 8;

/// Round-robin shard index for the calling thread, assigned on first use.
size_t ThisThreadShard();

/// Monotonically increasing event count. Reads sum all shards and are
/// exact once concurrent writers have quiesced.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (a double stored as raw bits).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value);
  double Value() const;

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-boundary log2 histogram over int64 values (nanoseconds by
/// convention). Bucket `i` in [1, kRegularBuckets] holds observations in
/// (2^(i-2), 2^(i-1)] — i.e. upper bound 2^(i-1) ns, inclusive — with
/// bucket 1 additionally absorbing 0. Bucket 0 is the underflow bucket
/// (negative values, which indicate a clock bug); the last bucket is the
/// overflow bucket. The top regular boundary 2^39 ns is ~550 s, beyond
/// any sane request latency.
///
/// Observe() is lock-free (per-shard relaxed atomics); readers merge the
/// shards. Histograms are mergeable: Merge() adds another histogram's
/// totals, and merging is associative and commutative.
class Histogram {
 public:
  static constexpr size_t kRegularBuckets = 40;
  /// Regular buckets plus underflow (index 0) and overflow (last index).
  static constexpr size_t kBucketCount = kRegularBuckets + 2;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value) { ObserveN(value, 1); }

  /// Records `n` observations of `value` with one shard update. Used by
  /// batched execution paths: a run of n same-kind requests is timed once
  /// and contributes n per-request observations at the run's mean cost.
  void ObserveN(int64_t value, uint64_t n) {
    if (n == 0) return;
    Shard& shard = shards_[ThisThreadShard()];
    shard.buckets[BucketIndex(value)].fetch_add(n, std::memory_order_relaxed);
    shard.count.fetch_add(n, std::memory_order_relaxed);
    shard.sum.fetch_add(value * static_cast<int64_t>(n),
                        std::memory_order_relaxed);
  }

  uint64_t Count() const;
  int64_t Sum() const;
  /// Merged (cross-shard) count for one bucket index in [0, kBucketCount).
  uint64_t BucketValue(size_t bucket) const;
  /// Mean observed value, or 0 when empty.
  double Mean() const;

  /// Adds `other`'s current totals into this histogram.
  void Merge(const Histogram& other);
  /// Zeroes every shard.
  void Reset();
  /// Reset() + Merge(other): makes this a snapshot copy of `other`.
  void CopyFrom(const Histogram& other);

  /// Bucket index an observation lands in.
  static size_t BucketIndex(int64_t value);
  /// Inclusive upper bound of a bucket: -1 for underflow, 2^(i-1) for
  /// regular bucket i, INT64_MAX for overflow.
  static int64_t BucketUpperBound(size_t bucket);

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kBucketCount] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<int64_t> sum{0};
  };
  Shard shards_[kMetricShards];
};

/// Named metric collection. GetX() returns a stable pointer, creating the
/// metric on first use; the registry owns every metric it hands out.
/// Names may carry Prometheus-style labels inline, e.g.
/// `fm_serve_requests_total{kind="insert",outcome="ok"}`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Looks up an existing metric without creating it; nullptr if absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Prometheus text exposition format.
  std::string ExportPrometheus() const;
  /// One JSON object: {"counters":…,"gauges":…,"histograms":…}.
  std::string ExportJson() const;

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      FM_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FM_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace fm

#endif  // FM_OBS_METRICS_H_
