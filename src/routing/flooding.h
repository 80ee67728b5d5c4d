// Routing-update dissemination (flooding).
//
// After the May 1979 change, routing updates carry only link-cost
// information: each PSN periodically originates an update reporting the
// costs of its own outgoing links, stamped with a per-origin sequence
// number, and every PSN forwards a newly-seen update on all links other than
// the one it arrived on (Rosen, "The Updating Protocol of ARPANET's New
// Routing Algorithm"). This module defines the update record and the
// forwarding fan-out; sim::Psn makes the accept decision against the update
// it holds from each origin, and the simulator provides transport, delivery
// delay and the high-priority treatment that makes all nodes react
// near-simultaneously (one of the oscillation ingredients in paper section
// 3.2).

#pragma once

#include <cstdint>
#include <vector>

#include "src/net/topology.h"

namespace arpanet::routing {

/// A routing update as flooded through the network.
///
/// An update reports every out-link of its origin, so its cost row is the
/// origin's whole link state: costs[i] is the cost of out_links(origin)[i].
/// A PSN keeps, per origin, the latest update it accepted and reads that
/// origin's link costs from it; one with a higher sequence number always
/// supersedes it, and one with an equal or lower number is a duplicate.
struct RoutingUpdate {
  net::NodeId origin = net::kInvalidNode;
  std::uint64_t seq = 0;
  std::vector<double> costs;

  /// Wire size in bits, used to charge the update against link bandwidth
  /// (paper section 3.3 point 4: update traffic consumes link bandwidth).
  /// Header ~128 bits plus 32 bits per reported link.
  [[nodiscard]] double wire_bits() const {
    return 128.0 + 32.0 * static_cast<double>(costs.size());
  }
};

/// Number of copies a node forwards when a newly-accepted update arrives on
/// `arrived_on` (an in-link of `node`, or kInvalidLink for a self-originated
/// update): every outgoing link except the arrival link's reverse. Walks the
/// topology's CSR span; used by the protocol tests to cross-check the
/// simulator's flooding fan-out.
[[nodiscard]] std::size_t flood_copy_count(const net::Topology& topo,
                                           net::NodeId node,
                                           net::LinkId arrived_on);

}  // namespace arpanet::routing
