#include "src/analysis/invariants.h"

#include <cmath>
#include <limits>
#include <vector>

#include "src/sim/network.h"
#include "src/sim/psn.h"
#include "src/util/check.h"

namespace arpanet::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// True for the sentinel a PSN advertises for an unusable link; such values
/// deliberately sit outside the metric's bounds and are exempt from the
/// cost invariants.
bool is_down_cost(double cost) { return cost == sim::Psn::kDownLinkCost; }

}  // namespace

void check_cost_in_bounds(Cost cost, Cost min_cost, Cost max_cost,
                          const char* what) {
  const double c = cost.value();
  const double lo = min_cost.value();
  const double hi = max_cost.value();
  ARPA_CHECK(std::isfinite(c)) << what << " is not finite: " << c;
  ARPA_CHECK(c >= lo - kCostSlack)
      << what << " " << c << " below line-type minimum " << lo;
  ARPA_CHECK(c <= hi + kCostSlack)
      << what << " " << c << " above line-type maximum " << hi;
}

void check_movement_limited(Cost previous, Cost next,
                            const core::LineTypeParams& params,
                            double extra_slack) {
  const double from = previous.value();
  const double to = next.value();
  const double up = to - from;
  ARPA_CHECK(up <= params.up_limit() + extra_slack + kCostSlack)
      << "cost rose " << from << " -> " << to << " (+" << up
      << "), above the per-update up limit " << params.up_limit()
      << " (+ slack " << extra_slack << ")";
  ARPA_CHECK(-up <= params.down_limit() + extra_slack + kCostSlack)
      << "cost fell " << from << " -> " << to << " (" << up
      << "), below the per-update down limit " << params.down_limit()
      << " (+ slack " << extra_slack << ")";
}

void check_utilization_in_range(Utilization u, const char* what) {
  ARPA_CHECK(std::isfinite(u.value()) && u.value() >= 0.0)
      << what << " is not a finite non-negative fraction: " << u.value();
}

void check_flat_region(const core::HnMetric& metric, int samples) {
  ARPA_CHECK(samples >= 2) << "flat-region check needs at least 2 samples";
  const double threshold = metric.params().flat_threshold;
  double last = -kInf;
  for (int i = 0; i < samples; ++i) {
    const double u = static_cast<double>(i) / (samples - 1);
    const double cost = metric.equilibrium_cost(u);
    check_cost_in_bounds(Cost{cost}, Cost{metric.min_cost()},
                         Cost{metric.max_cost()}, "equilibrium cost");
    if (u <= threshold) {
      ARPA_CHECK(cost <= metric.min_cost() + kCostSlack)
          << "equilibrium cost " << cost << " at utilization " << u
          << " is above the minimum " << metric.min_cost()
          << " inside the flat region (threshold " << threshold << ")";
    }
    ARPA_CHECK(cost >= last - kCostSlack)
        << "equilibrium map decreases at utilization " << u << ": " << last
        << " -> " << cost;
    last = cost;
  }
  ARPA_CHECK(std::abs(metric.equilibrium_cost(1.0) - metric.max_cost()) <=
             kCostSlack)
      << "equilibrium cost at 100% utilization is "
      << metric.equilibrium_cost(1.0) << ", expected the maximum "
      << metric.max_cost();
}

void check_spf_tree(const net::Topology& topo, const routing::SpfTree& tree,
                    std::span<const double> costs) {
  const std::size_t n = topo.node_count();
  ARPA_CHECK(tree.root < n) << "SPF tree root " << tree.root
                            << " out of range for " << n << " nodes";
  ARPA_CHECK(tree.dist.size() == n && tree.parent_link.size() == n &&
             tree.first_hop.size() == n)
      << "SPF tree arrays not sized to the node count " << n;
  ARPA_CHECK(costs.size() == topo.link_count())
      << "cost vector size " << costs.size() << " != link count "
      << topo.link_count();

  ARPA_CHECK(tree.dist[tree.root] == 0.0)
      << "root distance is " << tree.dist[tree.root];
  ARPA_CHECK(tree.parent_link[tree.root] == net::kInvalidLink &&
             tree.first_hop[tree.root] == net::kInvalidLink)
      << "root has a parent or first hop";

  for (net::NodeId v = 0; v < n; ++v) {
    if (v == tree.root) continue;
    if (tree.dist[v] == kInf) {
      ARPA_CHECK(!topo.is_connected())
          << "node " << v << " unreachable in a connected topology";
      ARPA_CHECK(tree.parent_link[v] == net::kInvalidLink &&
                 tree.first_hop[v] == net::kInvalidLink)
          << "unreachable node " << v << " has tree structure";
      continue;
    }
    const net::LinkId pl = tree.parent_link[v];
    ARPA_CHECK(pl != net::kInvalidLink)
        << "reached node " << v << " has no parent link";
    const net::Link& link = topo.link(pl);
    ARPA_CHECK(link.to == v) << "parent link " << pl << " of node " << v
                             << " ends at node " << link.to;
    ARPA_CHECK(std::abs(tree.dist[link.from] + costs[pl] - tree.dist[v]) <=
               kCostSlack)
        << "node " << v << ": dist " << tree.dist[v]
        << " != parent dist " << tree.dist[link.from] << " + link cost "
        << costs[pl];
    ARPA_CHECK(tree.dist[v] > tree.dist[link.from])
        << "node " << v << ": distance did not increase along tree edge "
        << pl << " (positive costs require it)";
    const net::LinkId expected_first =
        link.from == tree.root ? pl : tree.first_hop[link.from];
    ARPA_CHECK(tree.first_hop[v] == expected_first)
        << "node " << v << ": first hop " << tree.first_hop[v]
        << " disagrees with its parent chain (" << expected_first << ")";
  }

  // Acyclicity: every parent chain must reach the root within n steps,
  // which hop_count checks as it walks. (Strictly increasing distance along
  // edges already forbids cycles; this catches a corrupted parent array
  // whose distances lie.)
  for (net::NodeId v = 0; v < n; ++v) {
    if (tree.dist[v] != kInf) (void)routing::hop_count(topo, tree, v);
  }
}

AuditStats check_reachable_within_component(const sim::Network& net) {
  AuditStats stats;
  if (net.config().algorithm != routing::RoutingAlgorithm::kSpf) return stats;
  const net::Topology& topo = net.topology();
  const std::size_t n = topo.node_count();

  // Connected components over administratively-up trunks only.
  std::vector<int> comp(n, -1);
  std::vector<net::NodeId> frontier;
  int component_count = 0;
  for (net::NodeId s = 0; s < n; ++s) {
    if (comp[s] != -1) continue;
    comp[s] = component_count;
    frontier.assign(1, s);
    while (!frontier.empty()) {
      const net::NodeId at = frontier.back();
      frontier.pop_back();
      const auto out = topo.out_links(at);
      const auto targets = topo.out_targets(at);
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (!net.link_admin_up(out[i])) continue;
        if (comp[targets[i]] != -1) continue;
        comp[targets[i]] = component_count;
        frontier.push_back(targets[i]);
      }
    }
    ++component_count;
  }

  // Walk each pair's forwarding chain hop by hop through the PSNs' own
  // trees. With flooding quiesced every PSN holds the same cost map, so a
  // chain follows one consistent SPF tree: either it reaches `dst` within
  // n hops or some node has no first hop at all.
  for (net::NodeId src = 0; src < n; ++src) {
    for (net::NodeId dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      net::NodeId at = src;
      bool reached = false;
      bool saw_down = false;
      bool dead_end = false;
      for (std::size_t steps = 0; steps <= n; ++steps) {
        if (at == dst) {
          reached = true;
          break;
        }
        const net::LinkId hop = net.psn(at).tree().first_hop[dst];
        if (hop == net::kInvalidLink) {
          dead_end = true;
          break;
        }
        if (!net.link_admin_up(hop)) saw_down = true;
        at = topo.link(hop).to;
      }
      ARPA_CHECK(reached || dead_end)
          << "forwarding chain " << src << " -> " << dst
          << " loops: " << topo.node_count() << " hops without arriving";
      if (comp[src] == comp[dst]) {
        ARPA_CHECK(reached) << "same-component pair " << src << " -> " << dst
                            << " has no forwarding chain";
        ARPA_CHECK(!saw_down)
            << "route " << src << " -> " << dst
            << " crosses an administratively down link although both nodes "
               "share a component of the up subgraph";
      } else {
        ARPA_CHECK(saw_down || dead_end)
            << "cross-partition pair " << src << " -> " << dst
            << " has an all-up forwarding chain; component labeling is wrong";
      }
      ++stats.routes_checked;
    }
  }
  return stats;
}

AuditStats audit_network(const sim::Network& net) {
  const net::Topology& topo = net.topology();
  const sim::NetworkConfig& cfg = net.config();
  AuditStats stats;

  // Absolute bounds are the ones the network enforces on every report;
  // flat regions additionally need HN-SPF semantics.
  for (const net::Link& link : topo.links()) {
    // Mid-run line-type upgrades swap a link's type and rate; bounds, flat
    // regions and the live cost are judged against the record in effect
    // now.
    const net::Link& live = net.effective_link(link.id);

    const double reported = net.psn(link.from).reported_cost(link.id);
    if (!is_down_cost(reported)) {
      const metrics::CostBounds bounds = net.link_bounds(link.id);
      check_cost_in_bounds(Cost{reported}, Cost{bounds.min_cost},
                           Cost{bounds.max_cost});
      ++stats.costs_checked;
    }

    if (net.hnspf_semantics()) {
      check_flat_region(core::HnMetric{cfg.line_params.for_type(live.type),
                                       live.rate, live.prop_delay});
      ++stats.maps_checked;
    }
  }

  if (cfg.algorithm == routing::RoutingAlgorithm::kSpf) {
    for (net::NodeId node = 0; node < topo.node_count(); ++node) {
      const routing::IncrementalSpf& spf = net.psn(node).spf();
      check_spf_tree(topo, spf.tree(), spf.costs());
      ++stats.trees_checked;
    }
    if (net.updates_in_flight() == 0) {
      // Maps agree network-wide only once flooding has quiesced; mid-flood
      // the per-PSN trees legitimately disagree and pair routes may
      // transiently loop, so the route audit would false-positive.
      stats += check_reachable_within_component(net);
    }
  }

  return stats;
}

}  // namespace arpanet::analysis
