#ifndef FM_OBS_CLOCK_H_
#define FM_OBS_CLOCK_H_

/// \file clock.h
/// The time seam for all telemetry: every timestamp in the repo flows
/// through an `obs::Clock` so tests and replays can inject a manual clock
/// and observe deterministic timings. Wall time is observation-only — it
/// must never feed request execution (see docs/OBSERVABILITY.md).

#include <atomic>
#include <chrono>
#include <cstdint>

namespace fm {
namespace obs {

/// Abstract monotonic time source. Implementations must be monotone
/// non-decreasing and safe to call from any thread.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since an arbitrary fixed epoch.
  virtual int64_t NowNanos() const = 0;

  /// Convenience: seconds since the same epoch.
  double NowSeconds() const { return static_cast<double>(NowNanos()) * 1e-9; }
};

/// The real clock: std::chrono::steady_clock.
class MonotonicClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Process-wide shared instance.
  static const MonotonicClock* Default() {
    static const MonotonicClock clock;
    return &clock;
  }
};

/// Test clock: time advances only when told to. Thread-safe.
class ManualClock : public Clock {
 public:
  explicit ManualClock(int64_t start_nanos = 0) : nanos_(start_nanos) {}

  int64_t NowNanos() const override {
    return nanos_.load(std::memory_order_relaxed);
  }

  void Set(int64_t nanos) { nanos_.store(nanos, std::memory_order_relaxed); }

  void Advance(int64_t delta_nanos) {
    nanos_.fetch_add(delta_nanos, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> nanos_;
};

/// Resolves an optional injected clock to a usable one.
inline const Clock* ClockOrDefault(const Clock* clock) {
  return clock != nullptr ? clock : MonotonicClock::Default();
}

/// Elapsed-time helper over the Clock seam: the fuzz driver's wall-clock
/// timer.
class Stopwatch {
 public:
  explicit Stopwatch(const Clock* clock = nullptr)
      : clock_(ClockOrDefault(clock)), start_nanos_(clock_->NowNanos()) {}

  void Reset() { start_nanos_ = clock_->NowNanos(); }

  int64_t ElapsedNanos() const { return clock_->NowNanos() - start_nanos_; }

  double Seconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  double Millis() const {
    return static_cast<double>(ElapsedNanos()) * 1e-6;
  }

 private:
  const Clock* clock_;
  int64_t start_nanos_;
};

}  // namespace obs
}  // namespace fm

#endif  // FM_OBS_CLOCK_H_
