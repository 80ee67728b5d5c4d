// Metric maps: reported cost as a function of link utilization (figure 4/5/9).
//
// A MetricMap is the static (equilibrium) view of one metric on one line:
// the cost the metric settles on if the link's utilization is held constant
// — movement limits and averaging are dynamics, not part of this map. Costs
// are exposed both in raw routing units and normalized to hops, "divided by
// the value reported by an idle line" of a reference type (30 units for
// HN-SPF and 2 units for D-SPF on a 56 kb/s line, exactly as in figure 4).

#pragma once

#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"
#include "src/net/line_type.h"

namespace arpanet::analysis {

class MetricMap {
 public:
  /// Map for `kind` on a line of the given type. `prop_delay` defaults to
  /// the line type's default; pass SimTime::zero() for the idealized
  /// zero-propagation curves of figure 4.
  MetricMap(metrics::MetricKind kind, net::LineType type,
            const core::LineParamsTable& params, util::SimTime prop_delay);

  /// Cost in routing units at the given utilization.
  [[nodiscard]] double cost(double utilization) const;

  /// Cost divided by the hop unit (idle reference-line cost), i.e. in hops.
  [[nodiscard]] double normalized_cost(double utilization) const {
    return cost(utilization) / hop_unit_;
  }

  /// The "one hop" denominator: what an idle zero-propagation 56 kb/s
  /// terrestrial line reports under this metric (its bounds' minimum).
  [[nodiscard]] double hop_unit() const { return hop_unit_; }

  /// This line's own idle (minimum) cost in units.
  [[nodiscard]] double idle_cost() const { return cost(0.0); }
  /// This line's saturated cost in units.
  [[nodiscard]] double max_cost() const { return cost(1.0); }

 private:
  metrics::LinkMetric metric_;
  double hop_unit_;
};

}  // namespace arpanet::analysis
