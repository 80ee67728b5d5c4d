// Equal-cost multi-path forwarding (the paper's section 4.5 extension).
//
// "HN-SPF can only accomplish load-sharing indirectly ... To accomplish
// load-sharing when network traffic is dominated by several large flows
// would require a multi-path routing algorithm." This module implements the
// natural SPF-compatible version: a node forwards a destination's packets
// over *every* outgoing link that lies on some shortest path, i.e. every
// link l = (r, x) with cost(l) + dist(x, dst) == dist(r, dst).
//
// Measured metrics never make two parallel paths *exactly* equal — each
// reported cost lags the line's true cost by up to the metric's reporting
// granularity (a little less than a half-hop for HN-SPF), so two paths that
// differ in one link each can differ by a full hop on the map. compute()
// therefore accepts a tolerance: links whose via-cost is within `tolerance`
// of the optimum join the set. Loop freedom is kept by a second, separate
// test: a link l = (r, x) joins only if x is downstream, i.e.
// dist(x,dst) < dist(r,dst). Every admitted next hop then strictly
// decreases the remaining distance, so any walk over consistent cost maps
// terminates — the same consistency argument that protects single-path SPF
// — whatever the tolerance.

#pragma once

#include <span>
#include <vector>

#include "src/routing/spf.h"

namespace arpanet::routing {

/// Shortest-path next-hop *sets* for one root node.
class MultipathSets {
 public:
  /// Computes the sets for `root` given global link costs. Runs one SPF per
  /// distinct neighbor plus one for the root. `tolerance` (routing units)
  /// widens membership to nearly-equal paths; only downstream neighbors are
  /// admitted, so any tolerance keeps forwarding loop-free. Link costs must
  /// be positive (checked).
  [[nodiscard]] static MultipathSets compute(const net::Topology& topo,
                                             net::NodeId root,
                                             std::span<const double> costs,
                                             double tolerance = 0.0);

  /// All equal-cost outgoing links toward dst (empty if unreachable or
  /// dst == root). The single-path first hop is always a member.
  [[nodiscard]] std::span<const net::LinkId> next_hops(net::NodeId dst) const {
    return sets_.at(dst);
  }

  [[nodiscard]] net::NodeId root() const { return root_; }

 private:
  net::NodeId root_ = net::kInvalidNode;
  std::vector<std::vector<net::LinkId>> sets_;  // [dst] -> links
};

/// Analysis-side helper: per-node multipath sets for the whole network.
/// Returned vector is indexed by root node.
[[nodiscard]] std::vector<MultipathSets> compute_all_multipath(
    const net::Topology& topo, std::span<const double> costs,
    double tolerance = 0.0);

}  // namespace arpanet::routing
