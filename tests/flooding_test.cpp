// Flooding's accept/duplicate rule, exercised at a PSN: each PSN holds the
// latest update from every origin, and an arriving update is adopted only
// if its sequence number is higher than the held one's.

#include "src/routing/flooding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

/// A quiet five-node ring (no traffic, never run): updates are handed to a
/// PSN directly, so nothing but the delivered update changes its map.
class RingHarness {
 public:
  /// Delivers an update from `origin` with cost row `row` to PSN `at` over
  /// its first in-link, as a flooded copy would arrive.
  void deliver(net::NodeId at, net::NodeId origin, std::uint64_t seq,
               const std::vector<double>& row) {
    UpdatePool& updates = net_.update_pool();
    const UpdateHandle uh = updates.acquire();
    updates.at(uh).origin = origin;
    updates.at(uh).seq = seq;
    updates.at(uh).costs = row;
    PacketPool& pool = net_.packet_pool();
    const PacketHandle h = pool.acquire();
    pool.at(h).kind = Packet::Kind::kRoutingUpdate;
    pool.at(h).src = origin;
    pool.at(h).bits = updates.at(uh).wire_bits();
    pool.at(h).update = uh;
    net_.psn(at).receive(h, topo_.in_links(at)[0]);
  }

  /// Origin `origin`'s out-link costs as PSN `at` sees them, in out_links
  /// order (the row layout).
  [[nodiscard]] std::vector<double> row_at(net::NodeId at,
                                           net::NodeId origin) const {
    const routing::LinkCosts costs = net_.psn(at).spf().costs();
    std::vector<double> row;
    for (const net::LinkId l : topo_.out_links(origin)) row.push_back(costs[l]);
    return row;
  }

  [[nodiscard]] std::uint64_t held_seq(net::NodeId at,
                                       net::NodeId origin) const {
    return net_.update_pool().at(net_.psn(at).held_update(origin)).seq;
  }

  [[nodiscard]] const Network& net() const { return net_; }

 private:
  net::Topology topo_ = net::build_topology("ring:nodes=5");
  Network net_{topo_, NetworkConfig{}};
};

/// Everything an update's adoption can change at one PSN.
struct PsnView {
  routing::LinkCosts costs;
  long incremental;
  long skipped;
  long nodes_touched;
  long first_hop_changes;
  std::size_t in_flight;

  explicit PsnView(const Network& net, net::NodeId at)
      : costs{net.psn(at).spf().costs()},
        incremental{net.psn(at).spf().incremental_updates()},
        skipped{net.psn(at).spf().skipped_updates()},
        nodes_touched{net.psn(at).spf().nodes_touched()},
        first_hop_changes{net.psn(at).spf().first_hop_changes()},
        in_flight{net.updates_in_flight()} {}

  bool operator==(const PsnView&) const = default;
};

TEST(FloodingTest, AcceptsFirstUpdateFromOrigin) {
  RingHarness ring;
  EXPECT_EQ(ring.held_seq(0, 2), 0u) << "every PSN starts on the seed";
  ring.deliver(0, 2, 1, {30.0, 45.0});
  EXPECT_EQ(ring.held_seq(0, 2), 1u);
  EXPECT_EQ(ring.row_at(0, 2), (std::vector<double>{30.0, 45.0}));
  // Adopted updates are flooded on: their copies are in flight.
  EXPECT_EQ(ring.net().updates_in_flight(), 1u);
}

TEST(FloodingTest, RejectsDuplicateAndOlder) {
  RingHarness ring;
  ring.deliver(0, 2, 3, {30.0, 45.0});
  const PsnView after_first{ring.net(), 0};
  ring.deliver(0, 2, 3, {60.0, 20.0});  // duplicate
  EXPECT_EQ(PsnView(ring.net(), 0), after_first);
  ring.deliver(0, 2, 2, {60.0, 20.0});  // stale
  EXPECT_EQ(PsnView(ring.net(), 0), after_first);
  EXPECT_EQ(ring.held_seq(0, 2), 3u);
  ring.deliver(0, 2, 4, {60.0, 20.0});  // newer
  EXPECT_EQ(ring.held_seq(0, 2), 4u);
  EXPECT_EQ(ring.row_at(0, 2), (std::vector<double>{60.0, 20.0}));
}

TEST(FloodingTest, OriginsAreIndependent) {
  RingHarness ring;
  ring.deliver(0, 1, 7, {30.0, 45.0});
  ring.deliver(0, 2, 1, {50.0, 40.0});
  EXPECT_EQ(ring.held_seq(0, 1), 7u);
  EXPECT_EQ(ring.held_seq(0, 2), 1u);
  EXPECT_EQ(ring.row_at(0, 1), (std::vector<double>{30.0, 45.0}));
  EXPECT_EQ(ring.row_at(0, 2), (std::vector<double>{50.0, 40.0}));
  EXPECT_EQ(ring.held_seq(0, 3), 0u);
}

TEST(FloodingTest, SequenceGapsAreFine) {
  RingHarness ring;
  ring.deliver(0, 2, 5, {30.0, 45.0});
  ring.deliver(0, 2, 50, {35.0, 40.0});
  EXPECT_EQ(ring.held_seq(0, 2), 50u);
  EXPECT_EQ(ring.row_at(0, 2), (std::vector<double>{35.0, 40.0}));
}

TEST(FloodingTest, WireBitsGrowWithReports) {
  routing::RoutingUpdate small;
  small.costs = {30.0, 45.0};
  routing::RoutingUpdate large = small;
  large.costs.resize(12, 1.0);
  EXPECT_GT(large.wire_bits(), small.wire_bits());
  EXPECT_DOUBLE_EQ(small.wire_bits(), 128.0 + 32.0 * 2);
}

}  // namespace
}  // namespace arpanet::sim
