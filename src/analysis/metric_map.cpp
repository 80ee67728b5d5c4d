#include "src/analysis/metric_map.h"

namespace arpanet::analysis {

namespace {

/// A line of `type` with its tabled rate and the given propagation delay.
net::Link line_of(net::LineType type, util::SimTime prop_delay) {
  net::Link link;
  link.type = type;
  link.rate = net::info(type).rate;
  link.prop_delay = prop_delay;
  return link;
}

}  // namespace

MetricMap::MetricMap(metrics::MetricKind kind, net::LineType type,
                     const core::LineParamsTable& params,
                     util::SimTime prop_delay)
    : metric_{kind, line_of(type, prop_delay), params},
      hop_unit_{metrics::LinkMetric{kind,
                                    line_of(net::LineType::kTerrestrial56,
                                            util::SimTime::zero()),
                                    params}
                    .bounds()
                    .min_cost} {}

double MetricMap::cost(double utilization) const {
  return metric_.equilibrium_cost(utilization);
}

}  // namespace arpanet::analysis
