// Wall-clock attribution for hot paths.
//
// ARPALINT-LAYER(util): self-contained chrono wrapper usable from any layer
//
// Stopwatch is a thin steady_clock wrapper; ScopedTimer adds its scope's
// elapsed wall time into a caller-owned double on destruction, so timing a
// block is one declaration instead of the start/duration_cast boilerplate
// previously repeated in sim::run_scenario and exp::run_sweep.

#pragma once

#include <chrono>

namespace arpanet::obs {

class Stopwatch {
 public:
  Stopwatch() : start_{std::chrono::steady_clock::now()} {}

  /// Seconds since construction (or the last restart()).
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Adds the scope's wall time to `sink` when the scope exits.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& sink) : sink_{sink} {}
  ~ScopedTimer() { sink_ += watch_.seconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& sink_;
  Stopwatch watch_;
};

}  // namespace arpanet::obs
