// Shed-cost study (paper figure 7).
//
// "Each link is taken one at a time and statistics are collected relating
// the reported cost needed (in hops) to shed each route ... The statistics
// are aggregated over the whole network to get the characteristics of the
// 'average link'." For every route crossing a link at base cost, we find
// the smallest reported cost at which the route leaves the link, and bucket
// the results by the route's base path length — reproducing figure 7's
// mean / standard deviation / min / max-per-length curves, plus the two
// headline numbers the paper reads off it: the average link sheds *all* its
// routes at about four hops, the worst link needs about eight.

#pragma once

#include <vector>

#include "src/net/topology.h"
#include "src/stats/summary.h"
#include "src/traffic/traffic_matrix.h"

namespace arpanet::analysis {

struct ShedCostResult {
  /// Index = route length in hops (0 unused). Each Summary aggregates the
  /// shed cost of all (link, route) pairs with that base length.
  std::vector<stats::Summary> by_route_length;
  /// Per-link cost needed to shed ALL routes, aggregated over links.
  stats::Summary shed_all;
  /// Routes that never shed within the scanned cost range.
  long unshed_routes = 0;
};

/// Routes are enumerated from the traffic matrix's nonzero pairs.
[[nodiscard]] ShedCostResult shed_cost_study(
    const net::Topology& topo, const traffic::TrafficMatrix& matrix);

}  // namespace arpanet::analysis
