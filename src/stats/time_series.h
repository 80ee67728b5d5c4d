// Time-bucketed accumulators.
//
// Used for utilization traces (fig. 1-style oscillation plots), dropped
// packets per day (fig. 13) and routing-update rates over time.

#pragma once

#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace arpanet::stats {

/// Accumulates a quantity into fixed-width time buckets, growing as needed.
class TimeSeries {
 public:
  explicit TimeSeries(util::SimTime bucket_width);

  void add(util::SimTime when, double amount);

  /// Pre-extends the bucket array to cover times up to `when`, so add()
  /// calls at or before it never grow the vector — the piece that lets a
  /// measurement window run under an allocation guard (util/alloc_guard.h).
  void reserve_until(util::SimTime when);

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] double bucket(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0.0;
  }
  [[nodiscard]] util::SimTime bucket_start(std::size_t i) const {
    return width_ * static_cast<std::int64_t>(i);
  }
  [[nodiscard]] const std::vector<double>& values() const { return buckets_; }

 private:
  util::SimTime width_;
  std::vector<double> buckets_;
};

}  // namespace arpanet::stats
