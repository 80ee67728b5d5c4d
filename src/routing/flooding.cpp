#include "src/routing/flooding.h"

#include <stdexcept>

namespace arpanet::routing {

std::size_t flood_copy_count(const net::Topology& topo, net::NodeId node,
                             net::LinkId arrived_on) {
  const std::size_t fanout = topo.out_links(node).size();
  if (arrived_on == net::kInvalidLink) return fanout;
  if (topo.link(arrived_on).to != node) {
    throw std::invalid_argument(
        "flood_copy_count: arrived_on is not an in-link of the node");
  }
  // The reverse of the arrival link is by construction one of the node's
  // out-links, so exactly one copy is suppressed.
  return fanout - 1;
}

}  // namespace arpanet::routing
