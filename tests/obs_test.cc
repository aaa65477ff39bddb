// Tests for the obs/ telemetry subsystem: histogram bucket boundaries
// (including under/overflow and exact powers of two), shard-merge
// associativity, concurrent-increment exactness, exporter goldens, the
// injectable clock, and span parent links under a ManualClock.
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace fm::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket geometry.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketIndexBoundaries) {
  // Underflow: strictly negative values only.
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::min()), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1), 0u);
  // Bucket 1 absorbs 0 and 1 (upper bound 2^0 = 1).
  EXPECT_EQ(Histogram::BucketIndex(0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  // Bucket 2: (1, 2].
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  // Bucket 3: (2, 4].
  EXPECT_EQ(Histogram::BucketIndex(3), 3u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(5), 4u);
  // Top regular boundary 2^39 is inclusive; one past it overflows.
  const int64_t top = int64_t{1} << (Histogram::kRegularBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(top), Histogram::kRegularBuckets);
  EXPECT_EQ(Histogram::BucketIndex(top + 1), Histogram::kRegularBuckets + 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()),
            Histogram::kRegularBuckets + 1);
}

TEST(HistogramTest, ExactPowersOfTwoLandOnTheirInclusiveBound) {
  // 2^(i-1) is the inclusive upper bound of regular bucket i.
  for (size_t i = 1; i <= Histogram::kRegularBuckets; ++i) {
    const int64_t bound = int64_t{1} << (i - 1);
    EXPECT_EQ(Histogram::BucketIndex(bound), i) << "bound=" << bound;
    EXPECT_EQ(Histogram::BucketUpperBound(i), bound);
  }
  EXPECT_EQ(Histogram::BucketUpperBound(0), -1);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kRegularBuckets + 1),
            std::numeric_limits<int64_t>::max());
}

TEST(HistogramTest, ObserveCountsSumAndBuckets) {
  Histogram h;
  h.Observe(-5);   // underflow
  h.Observe(0);    // bucket 1
  h.Observe(1);    // bucket 1
  h.Observe(100);  // (64, 128] -> bucket 8
  h.ObserveN(3, 4);  // four observations of 3 -> bucket 3
  EXPECT_EQ(h.Count(), 8u);
  EXPECT_EQ(h.Sum(), -5 + 0 + 1 + 100 + 4 * 3);
  EXPECT_EQ(h.BucketValue(0), 1u);
  EXPECT_EQ(h.BucketValue(1), 2u);
  EXPECT_EQ(h.BucketValue(3), 4u);
  EXPECT_EQ(h.BucketValue(8), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(h.Sum()) / 8.0);
}

TEST(HistogramTest, ObserveNZeroIsANoOp) {
  Histogram h;
  h.ObserveN(42, 0);
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0);
}

TEST(HistogramTest, MergeIsAssociative) {
  // (a + b) + c and a + (b + c) must agree bucket-for-bucket.
  const auto fill = [](Histogram& h, int64_t base, int n) {
    for (int i = 0; i < n; ++i) h.Observe(base + i * 7);
  };
  Histogram a1, b1, c1, a2, b2, c2;
  fill(a1, 1, 20);
  fill(a2, 1, 20);
  fill(b1, 1000, 15);
  fill(b2, 1000, 15);
  fill(c1, 1 << 20, 10);
  fill(c2, 1 << 20, 10);

  Histogram left;  // (a + b) + c
  left.Merge(a1);
  left.Merge(b1);
  left.Merge(c1);
  Histogram bc;  // a + (b + c)
  bc.Merge(b2);
  bc.Merge(c2);
  Histogram right;
  right.Merge(a2);
  right.Merge(bc);

  EXPECT_EQ(left.Count(), right.Count());
  EXPECT_EQ(left.Sum(), right.Sum());
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(left.BucketValue(i), right.BucketValue(i)) << "bucket " << i;
  }
}

TEST(HistogramTest, CopyFromSnapshots) {
  Histogram src, dst;
  src.Observe(5);
  src.Observe(9);
  dst.Observe(12345);  // must be discarded by CopyFrom
  dst.CopyFrom(src);
  EXPECT_EQ(dst.Count(), 2u);
  EXPECT_EQ(dst.Sum(), 14);
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(dst.BucketValue(i), src.BucketValue(i)) << "bucket " << i;
  }
}

// ---------------------------------------------------------------------------
// Concurrent exactness: counts must be exact once writers join, regardless
// of how threads map onto shards.
// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<int64_t>(t) * 1000 + 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    bucket_total += h.BucketValue(i);
  }
  EXPECT_EQ(bucket_total, h.Count());
}

TEST(GaugeTest, SetAndReadBack) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_DOUBLE_EQ(g.Value(), 3.25);
  g.Set(-1e300);
  EXPECT_DOUBLE_EQ(g.Value(), -1e300);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(RegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("fm_test_total");
  Counter* c2 = registry.GetCounter("fm_test_total");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(registry.FindCounter("fm_test_total"), c1);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
  EXPECT_EQ(registry.FindGauge("fm_test_total"), nullptr);
}

TEST(RegistryTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("fm_requests_total{kind=\"insert\"}")->Increment(3);
  registry.GetCounter("fm_requests_total{kind=\"predict\"}")->Increment(5);
  registry.GetGauge("fm_queue_depth")->Set(2);
  Histogram* h = registry.GetHistogram("fm_latency_nanos");
  h->Observe(1);  // bucket 1, le="1"
  h->Observe(3);  // bucket 3, le="4"

  const std::string expected =
      "# TYPE fm_requests_total counter\n"
      "fm_requests_total{kind=\"insert\"} 3\n"
      "fm_requests_total{kind=\"predict\"} 5\n"
      "# TYPE fm_queue_depth gauge\n"
      "fm_queue_depth 2\n"
      "# TYPE fm_latency_nanos histogram\n"
      "fm_latency_nanos_bucket{le=\"1\"} 1\n"
      "fm_latency_nanos_bucket{le=\"4\"} 2\n"
      "fm_latency_nanos_bucket{le=\"+Inf\"} 2\n"
      "fm_latency_nanos_sum 4\n"
      "fm_latency_nanos_count 2\n";
  EXPECT_EQ(registry.ExportPrometheus(), expected);
}

TEST(RegistryTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("fm_requests_total")->Increment(7);
  registry.GetGauge("fm_epsilon_remaining")->Set(1.5);
  Histogram* h = registry.GetHistogram("fm_latency_nanos");
  h->Observe(-1);  // underflow bucket
  h->Observe(2);   // bucket 2, le="2"

  const std::string expected =
      "{\"counters\":{\"fm_requests_total\":7},"
      "\"gauges\":{\"fm_epsilon_remaining\":1.5},"
      "\"histograms\":{\"fm_latency_nanos\":{\"count\":2,\"sum\":1,"
      "\"buckets\":[{\"le\":\"underflow\",\"count\":1},"
      "{\"le\":\"2\",\"count\":1},"
      "{\"le\":\"+Inf\",\"count\":0}]}}}";
  EXPECT_EQ(registry.ExportJson(), expected);
}

TEST(RegistryTest, EmptyExports) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ExportPrometheus(), "");
  EXPECT_EQ(registry.ExportJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

// ---------------------------------------------------------------------------
// Clock and Stopwatch.
// ---------------------------------------------------------------------------

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.Set(100);
  EXPECT_EQ(clock.NowNanos(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowNanos(), 150);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 150e-9);
}

TEST(ClockTest, StopwatchUsesInjectedClock) {
  ManualClock clock;
  Stopwatch sw(&clock);
  clock.Advance(2'000'000);  // 2 ms
  EXPECT_EQ(sw.ElapsedNanos(), 2'000'000);
  EXPECT_DOUBLE_EQ(sw.Millis(), 2.0);
  EXPECT_DOUBLE_EQ(sw.Seconds(), 2e-3);
  sw.Reset();
  EXPECT_EQ(sw.ElapsedNanos(), 0);
}

TEST(ClockTest, MonotonicClockNeverGoesBackwards) {
  const MonotonicClock& clock = *MonotonicClock::Default();
  int64_t last = clock.NowNanos();
  for (int i = 0; i < 1000; ++i) {
    const int64_t now = clock.NowNanos();
    ASSERT_GE(now, last);
    last = now;
  }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

TEST(SpanTest, ParentLinksAndDurationsUnderManualClock) {
  ManualClock clock;
  Tracer tracer(&clock);

  clock.Set(10);
  Span root = tracer.StartSpan("execute_log");
  clock.Set(20);
  {
    Span child = tracer.StartChild(root, "predict");
    clock.Set(35);
  }  // child ends at 35
  clock.Set(50);
  root.End();

  std::vector<SpanRecord> records = tracer.TakeRecords();
  ASSERT_EQ(records.size(), 2u);
  // Children finish first, so they commit first.
  EXPECT_EQ(records[0].name, "predict");
  EXPECT_EQ(records[0].parent_id, records[1].id);
  EXPECT_EQ(records[0].start_nanos, 20);
  EXPECT_EQ(records[0].end_nanos, 35);
  EXPECT_EQ(records[0].DurationNanos(), 15);
  EXPECT_EQ(records[1].name, "execute_log");
  EXPECT_EQ(records[1].parent_id, 0u);
  EXPECT_EQ(records[1].start_nanos, 10);
  EXPECT_EQ(records[1].end_nanos, 50);
  EXPECT_TRUE(tracer.TakeRecords().empty());
}

TEST(SpanTest, CapacityBoundDropsInsteadOfGrowing) {
  ManualClock clock;
  Tracer tracer(&clock, /*capacity=*/2);
  tracer.StartSpan("a").End();
  tracer.StartSpan("b").End();
  tracer.StartSpan("c").End();  // dropped: buffer full
  EXPECT_EQ(tracer.buffered(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(tracer.TakeRecords().size(), 2u);
  tracer.StartSpan("d").End();  // buffer drained, accepted again
  EXPECT_EQ(tracer.buffered(), 1u);
}

TEST(SpanTest, DefaultConstructedSpanIsInert) {
  Span span;
  EXPECT_FALSE(span.active());
  span.End();  // must not crash
}

}  // namespace
}  // namespace fm::obs
