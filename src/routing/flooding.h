// Routing-update dissemination (flooding).
//
// After the May 1979 change, routing updates carry only link-cost
// information: each PSN periodically originates an update reporting the
// costs of its own outgoing links, stamped with a per-origin sequence
// number, and every PSN forwards a newly-seen update on all links other than
// the one it arrived on (Rosen, "The Updating Protocol of ARPANET's New
// Routing Algorithm"). This module implements the origin/accept/forward
// decisions; the simulator provides transport, delivery delay and the
// high-priority treatment that makes all nodes react near-simultaneously
// (one of the oscillation ingredients in paper section 3.2).

#pragma once

#include <cstdint>
#include <vector>

#include "src/net/topology.h"

namespace arpanet::routing {

/// One link's reported cost inside an update.
struct LinkCostReport {
  net::LinkId link = net::kInvalidLink;
  double cost = 0.0;
};

/// A routing update as flooded through the network.
struct RoutingUpdate {
  net::NodeId origin = net::kInvalidNode;
  std::uint64_t seq = 0;
  std::vector<LinkCostReport> reports;

  /// Wire size in bits, used to charge the update against link bandwidth
  /// (paper section 3.3 point 4: update traffic consumes link bandwidth).
  /// Header ~128 bits plus 32 bits per reported link.
  [[nodiscard]] double wire_bits() const {
    return 128.0 + 32.0 * static_cast<double>(reports.size());
  }
};

/// Per-node flooding state: duplicate suppression by origin sequence number.
class FloodingState {
 public:
  explicit FloodingState(std::size_t node_count)
      : last_seq_(node_count, 0) {}

  /// True iff this update is newer than anything previously seen from its
  /// origin; if so, records it (caller should then apply and forward it).
  bool accept(const RoutingUpdate& update) {
    auto& last = last_seq_.at(update.origin);
    if (update.seq <= last) {
      ++duplicates_;
      return false;
    }
    last = update.seq;
    ++accepted_;
    return true;
  }

  [[nodiscard]] std::uint64_t last_seq(net::NodeId origin) const {
    return last_seq_.at(origin);
  }
  [[nodiscard]] long accepted() const { return accepted_; }
  [[nodiscard]] long duplicates() const { return duplicates_; }

 private:
  std::vector<std::uint64_t> last_seq_;
  long accepted_ = 0;
  long duplicates_ = 0;
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
