// Construction of per-link metric instances.
//
// The simulator models exactly the three metrics the paper compares, and
// MetricKind names them: make_metric builds one link's instance,
// initial_cost states the cost a fresh instance advertises, and
// cost_bounds the absolute range its reported costs must stay in. A new
// metric is a MetricKind enumerator plus one case in each.

#pragma once

#include <memory>

#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"

namespace arpanet::metrics {

/// Creates the metric instance for one simplex link.
[[nodiscard]] std::unique_ptr<LinkMetric> make_metric(
    MetricKind kind, const net::Link& link, const core::LineParamsTable& params);

/// The cost a freshly built metric for `link` advertises, equal to
/// make_metric(kind, link, params)->initial_cost() without building one:
/// HN-SPF's maximum (new links ease in, section 5.4), D-SPF's bias,
/// min-hop's constant.
[[nodiscard]] double initial_cost(MetricKind kind, const net::Link& link,
                                  const core::LineParamsTable& params);

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
