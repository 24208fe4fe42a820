#pragma once
// Wall-clock timing helpers used by the design-time profiler (§4.2) and the
// benchmark harness.

#include <chrono>
#include <cstdint>

namespace apm {

// Monotonic stopwatch with microsecond-resolution reads.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_us() const { return elapsed_seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates the elapsed time of a scope into a double (in seconds).
class ScopedAccumulator {
 public:
  explicit ScopedAccumulator(double& sink) : sink_(sink) {}
  ~ScopedAccumulator() { sink_ += timer_.elapsed_seconds(); }
  ScopedAccumulator(const ScopedAccumulator&) = delete;
  ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

 private:
  double& sink_;
  Timer timer_;
};

}  // namespace apm
