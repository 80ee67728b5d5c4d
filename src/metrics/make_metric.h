// Construction of per-link metric instances.
//
// The simulator models exactly the three metrics the paper compares, and
// MetricKind names them: make_metric builds one link's instance and
// cost_bounds states the absolute range its reported costs must stay in.
// A new metric is a MetricKind enumerator plus one case in each.

#pragma once

#include <memory>

#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"

namespace arpanet::metrics {

/// Creates the metric instance for one simplex link.
[[nodiscard]] std::unique_ptr<LinkMetric> make_metric(
    MetricKind kind, const net::Link& link, const core::LineParamsTable& params);

/// The absolute cost range a link's metric promises. The invariant layer
/// (sim::Network per report, analysis::audit_network at end of run) enforces
/// it on every cost the metric reports.
struct CostBounds {
  double min_cost = 0.0;
  double max_cost = 0.0;
};

/// The built-in metrics' documented ranges for `link`: HN-SPF's
/// propagation-adjusted [min_cost, max_cost], D-SPF's [bias, 254 units],
/// min-hop's constant.
[[nodiscard]] CostBounds cost_bounds(MetricKind kind, const net::Link& link,
                                     const core::LineParamsTable& params);

}  // namespace arpanet::metrics
