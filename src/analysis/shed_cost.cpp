#include "src/analysis/shed_cost.h"

#include <algorithm>

#include "src/routing/spf.h"

namespace arpanet::analysis {

namespace {

/// True iff `link` lies on the tree path root -> dst.
bool route_uses_link(const net::Topology& topo, const routing::SpfTree& tree,
                     net::NodeId dst, net::LinkId link) {
  for (net::NodeId at = dst; at != tree.root;) {
    const net::LinkId pl = tree.parent_link[at];
    if (pl == net::kInvalidLink) return false;
    if (pl == link) return true;
    at = topo.link(pl).from;
  }
  return false;
}

/// Scanned reported costs, in hops: from just above one hop up to this,
/// in steps of kCostStep.
constexpr double kMaxCost = 12.875;
constexpr double kCostStep = 0.25;

struct PendingRoute {
  net::NodeId src;
  net::NodeId dst;
  int base_length;  // hops at base cost
};

}  // namespace

ShedCostResult shed_cost_study(const net::Topology& topo,
                               const traffic::TrafficMatrix& matrix) {
  ShedCostResult result;
  result.by_route_length.resize(2 * topo.node_count() + 2);

  const double base_cost = 0.875;  // "one hop, ties in favor"
  routing::LinkCosts costs(topo.link_count(), 1.0);

  for (const net::Link& link : topo.links()) {
    // Routes crossing this link at base cost.
    costs[link.id] = base_cost;
    std::vector<PendingRoute> pending;
    for (net::NodeId src = 0; src < topo.node_count(); ++src) {
      const routing::SpfTree tree = routing::Spf::compute(topo, src, costs);
      for (net::NodeId dst = 0; dst < topo.node_count(); ++dst) {
        if (dst == src || matrix.at(src, dst) <= 0.0) continue;
        if (route_uses_link(topo, tree, dst, link.id)) {
          pending.push_back({src, dst, routing::hop_count(topo, tree, dst)});
        }
      }
    }

    double shed_all_cost = 0.0;
    for (double c = 1.125; c <= kMaxCost + 1e-9 && !pending.empty();
         c += kCostStep) {
      costs[link.id] = c;
      // Group remaining routes by source so each tree is computed once.
      std::ranges::sort(pending, {}, &PendingRoute::src);
      std::vector<PendingRoute> still;
      std::size_t i = 0;
      while (i < pending.size()) {
        const net::NodeId src = pending[i].src;
        const routing::SpfTree tree = routing::Spf::compute(topo, src, costs);
        for (; i < pending.size() && pending[i].src == src; ++i) {
          if (route_uses_link(topo, tree, pending[i].dst, link.id)) {
            still.push_back(pending[i]);
          } else {
            // Shed at this cost: record at the enclosing integer-ish value
            // (c = n + 0.125 encodes "cost n, ties against").
            const double shed_at = c - 0.125;
            const auto idx = static_cast<std::size_t>(
                std::min<int>(pending[i].base_length,
                              static_cast<int>(result.by_route_length.size()) - 1));
            result.by_route_length[idx].add(shed_at);
            shed_all_cost = std::max(shed_all_cost, shed_at);
          }
        }
      }
      pending = std::move(still);
    }
    result.unshed_routes += static_cast<long>(pending.size());
    if (shed_all_cost > 0.0 && pending.empty()) {
      result.shed_all.add(shed_all_cost);
    }
    costs[link.id] = 1.0;
  }
  return result;
}

}  // namespace arpanet::analysis
