// Per-link trace hooks: reported-cost and utilization time series.
//
// ARPALINT-LAYER(net): needs only topology identifiers; sim hands it
// samples through the abstract TraceSink interface
//
// Jonglez et al. (PAPERS.md) make the case that smoothing/hysteresis
// metrics are only debuggable when their per-link dynamics are recorded as
// time series, and Fukś et al. that distributions beat point averages. A
// TraceSink attached to a sim::Network receives
//   * every reported cost the moment an update is originated, and
//   * every link's measured busy fraction once per measurement period,
// without the network pre-committing to a storage format. Detached costs
// one branch per event (same contract as sim::PacketTracer).
//
// RecordingTraceSink is the standard in-memory implementation used by
// tools/bench_report and the tests.

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/net/topology.h"
#include "src/util/units.h"

namespace arpanet::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A PSN originated an update advertising `cost` for its link `link`.
  virtual void on_cost_reported(net::LinkId link, util::SimTime at,
                                double cost) = 0;

  /// One measurement period closed on `link` with this busy fraction.
  virtual void on_utilization(net::LinkId link, util::SimTime at,
                              double busy_fraction) = 0;
};

/// Stores both series per link in memory.
class RecordingTraceSink final : public TraceSink {
 public:
  using Sample = std::pair<util::SimTime, double>;

  explicit RecordingTraceSink(std::size_t link_count)
      : costs_(link_count), utilizations_(link_count) {}

  void on_cost_reported(net::LinkId link, util::SimTime at,
                        double cost) override;
  void on_utilization(net::LinkId link, util::SimTime at,
                      double busy_fraction) override;

  [[nodiscard]] const std::vector<Sample>& costs(net::LinkId link) const {
    return costs_.at(link);
  }
  [[nodiscard]] const std::vector<Sample>& utilizations(
      net::LinkId link) const {
    return utilizations_.at(link);
  }
  [[nodiscard]] std::size_t link_count() const { return costs_.size(); }

  /// Total samples recorded across all links (both series).
  [[nodiscard]] std::size_t total_samples() const;

 private:
  std::vector<std::vector<Sample>> costs_;
  std::vector<std::vector<Sample>> utilizations_;
};

}  // namespace arpanet::obs
