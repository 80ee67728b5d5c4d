// Figure 1's two-region network.
//
// "Consider a network that consists of two regions connected by two links,
// A and B" — the smallest shape on which the 1979 metric oscillates: all
// inter-region traffic must choose between A and B each shortest-path
// computation, and with D-SPF the whole load swings between them every
// measurement period (fig. 1's square wave).
//
// Layout, by name (callers look the handles up rather than receive them):
// region 1 is A0..A{k-1} (node ids 0..k-1), region 2 is B0..B{k-1} (ids
// k..2k-1), link A is A0-B0 and link B is A{k/2}-B{k/2}, each found with
// Topology::link_between from the region-1 end.

#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"

namespace arpanet::net::builders::families {

namespace {

/// One region: a ring (2-edge-connected) plus a diameter chord so
/// intra-region paths stay short relative to the inter-region hop.
std::vector<NodeId> add_region(Topology& topo, const std::string& prefix,
                               int n) {
  std::vector<NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes.push_back(topo.add_node(prefix + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    topo.add_duplex(nodes[static_cast<std::size_t>(i)],
                    nodes[static_cast<std::size_t>((i + 1) % n)],
                    LineType::kTerrestrial56);
  }
  if (n >= 5) {
    topo.add_duplex(nodes[1], nodes[static_cast<std::size_t>(1 + n / 2)],
                    LineType::kTerrestrial56);
  }
  return nodes;
}

}  // namespace

std::size_t two_region_shape_nodes(const GraphSpec& spec) {
  return 2 * static_cast<std::size_t>(spec.param("per_region", 0));
}

Topology two_region(const GraphSpec& spec) {
  auto per = static_cast<std::size_t>(spec.param("per_region", 0));
  const std::size_t shaped = two_region_shape_nodes(spec);
  if (spec.nodes() != 0 && shaped != 0 && spec.nodes() != shaped) {
    throw std::invalid_argument(
        "two-region: nodes=" + std::to_string(spec.nodes()) +
        " contradicts per_region=" + std::to_string(per) + " (" +
        std::to_string(shaped) + " nodes)");
  }
  if (per == 0) {
    if (spec.nodes() % 2 != 0) {
      throw std::invalid_argument("two-region: nodes must be even");
    }
    per = spec.nodes() / 2;
  }
  if (per < 3) {
    throw std::invalid_argument("two-region: need at least 3 nodes per region");
  }
  const auto k = static_cast<int>(per);
  Topology topo;
  const std::vector<NodeId> region1 = add_region(topo, "A", k);
  const std::vector<NodeId> region2 = add_region(topo, "B", k);

  // The two parallel inter-region trunks. Identical line type (hence rate
  // and propagation delay), different endpoints: figure 1 requires the
  // choice between them to be driven by reported cost alone.
  const std::size_t half = per / 2;
  topo.add_duplex(region1[0], region2[0], LineType::kTerrestrial56);
  topo.add_duplex(region1[half], region2[half], LineType::kTerrestrial56);
  return topo;
}

}  // namespace arpanet::net::builders::families
