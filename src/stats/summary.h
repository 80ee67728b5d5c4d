// Streaming summary statistics (Welford) — mean/variance/min/max without
// storing samples. Used all over the measurement and analysis layers.

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace arpanet::stats {

class Summary {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace arpanet::stats
