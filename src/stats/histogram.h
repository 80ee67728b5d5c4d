// Fixed-bin histogram with quantile extraction.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace arpanet::stats {

/// Linear-bin histogram over [lo, hi); samples outside are clamped into the
/// end bins so mass is never lost.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::span<const std::int64_t> bins() const { return bins_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;

  /// q in [0, 1]; returns the midpoint of the bin containing that quantile
  /// (0 if empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::int64_t> bins_;
  std::int64_t count_ = 0;
};

}  // namespace arpanet::stats
