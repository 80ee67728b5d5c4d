// Hop-by-hop path tracing over per-node forwarding decisions.
//
// ARPANET forwarding is destination-based and single-path: a packet header
// carries only the destination PSN, and each PSN maps destination to one
// outgoing link (paper section 2). trace_path walks that chain from a source
// through whatever lookup the caller supplies — each PSN's own SPF tree, its
// 1969 distance-vector table, or a hand-built table in a test — and is what
// sim::Network::current_route reports. Because each node routes
// independently, a walk can loop when nodes hold inconsistent costs; the
// trace reports that rather than hiding it — transient loops are part of the
// phenomenon under study.

#pragma once

#include <concepts>
#include <vector>

#include "src/net/topology.h"

namespace arpanet::routing {

/// Result of walking a packet's path hop by hop.
struct PathTrace {
  std::vector<net::LinkId> links;  ///< links traversed, in order
  bool reached = false;            ///< destination was reached
  bool looped = false;             ///< a node was visited twice
  [[nodiscard]] int hops() const { return static_cast<int>(links.size()); }
};

/// Walks from src toward dst, following `next_hop(node, dst)` — the
/// outgoing link `node` uses for packets to `dst`, or kInvalidLink when it
/// has none (the walk then stops unreached).
template <typename NextHop>
  requires std::invocable<NextHop&, net::NodeId, net::NodeId>
[[nodiscard]] PathTrace trace_path(const net::Topology& topo, net::NodeId src,
                                   net::NodeId dst, NextHop&& next_hop) {
  PathTrace trace;
  std::vector<bool> visited(topo.node_count(), false);
  net::NodeId at = src;
  while (at != dst) {
    if (visited[at]) {
      trace.looped = true;
      return trace;
    }
    visited[at] = true;
    const net::LinkId next = next_hop(at, dst);
    if (next == net::kInvalidLink) return trace;  // unreachable
    trace.links.push_back(next);
    at = topo.link(next).to;
  }
  trace.reached = true;
  return trace;
}

}  // namespace arpanet::routing
