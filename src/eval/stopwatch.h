#ifndef FM_EVAL_STOPWATCH_H_
#define FM_EVAL_STOPWATCH_H_

#include <chrono>
#include <ctime>

namespace fm::eval {

/// Per-thread CPU-time stopwatch. Used for the §7.4 training-time metric:
/// unlike wall-clock it is immune to core contention from sibling folds
/// training concurrently on the pool, so figs 7–9 report the same values
/// whether the sweep runs on 1 thread or 8. Falls back to wall-clock on
/// platforms without a thread CPU clock.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(Now()) {}

  void Reset() { start_ = Now(); }

  /// CPU seconds this thread has consumed since construction / last Reset.
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

}  // namespace fm::eval

#endif  // FM_EVAL_STOPWATCH_H_
