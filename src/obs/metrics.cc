#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

namespace fm {
namespace obs {

size_t ThisThreadShard() {
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

void Gauge::Set(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  bits_.store(bits, std::memory_order_relaxed);
}

double Gauge::Value() const {
  const uint64_t bits = bits_.load(std::memory_order_relaxed);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t Histogram::Sum() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::BucketValue(size_t bucket) const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.buckets[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const uint64_t count = Count();
  if (count == 0) return 0.0;
  return static_cast<double>(Sum()) / static_cast<double>(count);
}

void Histogram::Merge(const Histogram& other) {
  Shard& dst = shards_[0];
  for (size_t b = 0; b < kBucketCount; ++b) {
    const uint64_t n = other.BucketValue(b);
    if (n != 0) dst.buckets[b].fetch_add(n, std::memory_order_relaxed);
  }
  dst.count.fetch_add(other.Count(), std::memory_order_relaxed);
  dst.sum.fetch_add(other.Sum(), std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (size_t b = 0; b < kBucketCount; ++b) {
      shard.buckets[b].store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

void Histogram::CopyFrom(const Histogram& other) {
  Reset();
  Merge(other);
}

size_t Histogram::BucketIndex(int64_t value) {
  if (value < 0) return 0;   // underflow: negative elapsed time is a bug
  if (value <= 1) return 1;  // bucket 1 covers [0, 1]
  // Smallest i with value <= 2^(i-1), i.e. i = 65 - clz(value - 1).
  const uint64_t v = static_cast<uint64_t>(value) - 1;
  const size_t i = 65 - static_cast<size_t>(__builtin_clzll(v));
  return i > kRegularBuckets ? kRegularBuckets + 1 : i;
}

int64_t Histogram::BucketUpperBound(size_t bucket) {
  if (bucket == 0) return -1;
  if (bucket > kRegularBuckets) return std::numeric_limits<int64_t>::max();
  return int64_t{1} << (bucket - 1);
}

namespace {

/// Splits `fm_name{k="v"}` into base `fm_name` and inner labels `k="v"`.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const size_t pos = name.find('{');
  if (pos == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, pos);
  // Strip the surrounding braces; a trailing '}' is required by
  // construction of every metric name in this repo.
  *labels = name.substr(pos + 1, name.size() - pos - 2);
}

std::string LabeledName(const std::string& base, const std::string& suffix,
                        const std::string& labels,
                        const std::string& extra_label) {
  std::string out = base + suffix;
  if (labels.empty() && extra_label.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra_label.empty()) out += ',';
  out += extra_label;
  out += '}';
  return out;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return std::string(buf);
}

std::string FormatU64(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return std::string(buf);
}

std::string FormatI64(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  return std::string(buf);
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Emits `# TYPE` the first time a base name appears in a section.
void MaybeEmitType(const std::string& base, const char* type,
                   std::string* last_base, std::string* out) {
  if (base == *last_base) return;
  *last_base = base;
  out->append("# TYPE ");
  out->append(base);
  out->append(" ");
  out->append(type);
  out->append("\n");
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot.reset(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot.reset(new Histogram());
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::ExportPrometheus() const {
  MutexLock lock(mutex_);
  std::string out;
  std::string base, labels, last_base;
  for (const auto& entry : counters_) {
    SplitName(entry.first, &base, &labels);
    MaybeEmitType(base, "counter", &last_base, &out);
    out += entry.first;
    out += ' ';
    out += FormatU64(entry.second->Value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& entry : gauges_) {
    SplitName(entry.first, &base, &labels);
    MaybeEmitType(base, "gauge", &last_base, &out);
    out += entry.first;
    out += ' ';
    out += FormatDouble(entry.second->Value());
    out += '\n';
  }
  last_base.clear();
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.second;
    SplitName(entry.first, &base, &labels);
    MaybeEmitType(base, "histogram", &last_base, &out);
    // Cumulative buckets; empty buckets are skipped (the running total is
    // unchanged), the +Inf bucket is always emitted. The underflow bucket
    // folds into the first cumulative count.
    uint64_t cumulative = h.BucketValue(0);
    for (size_t b = 1; b <= Histogram::kRegularBuckets; ++b) {
      const uint64_t n = h.BucketValue(b);
      if (n == 0) continue;
      cumulative += n;
      out += LabeledName(base, "_bucket", labels,
                         "le=\"" +
                             FormatI64(Histogram::BucketUpperBound(b)) +
                             "\"");
      out += ' ';
      out += FormatU64(cumulative);
      out += '\n';
    }
    out += LabeledName(base, "_bucket", labels, "le=\"+Inf\"");
    out += ' ';
    out += FormatU64(h.Count());
    out += '\n';
    out += LabeledName(base, "_sum", labels, "");
    out += ' ';
    out += FormatI64(h.Sum());
    out += '\n';
    out += LabeledName(base, "_count", labels, "");
    out += ' ';
    out += FormatU64(h.Count());
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  MutexLock lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& entry : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(entry.first) + "\":" +
           FormatU64(entry.second->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& entry : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(entry.first) + "\":" +
           FormatDouble(entry.second->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& entry : histograms_) {
    const Histogram& h = *entry.second;
    if (!first) out += ',';
    first = false;
    out += '"' + JsonEscape(entry.first) + "\":{\"count\":" +
           FormatU64(h.Count()) + ",\"sum\":" + FormatI64(h.Sum()) +
           ",\"buckets\":[";
    // Empty buckets are skipped, except the terminal +Inf bucket, which is
    // always present so consumers can anchor the bucket list.
    bool first_bucket = true;
    for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
      const uint64_t n = h.BucketValue(b);
      if (n == 0 && b <= Histogram::kRegularBuckets) continue;
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "{\"le\":\"";
      if (b == 0) {
        out += "underflow";
      } else if (b > Histogram::kRegularBuckets) {
        out += "+Inf";
      } else {
        out += FormatI64(Histogram::BucketUpperBound(b));
      }
      out += "\",\"count\":" + FormatU64(n) + '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace fm
