#include "src/routing/multipath.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/net/builders/registry.h"
#include "src/sim/network.h"
#include "src/util/rng.h"

namespace arpanet::routing {
namespace {

using net::LineType;
using net::Topology;

Topology diamond() {
  Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, LineType::kTerrestrial56);  // 0,1
  t.add_duplex(a, c, LineType::kTerrestrial56);  // 2,3
  t.add_duplex(b, d, LineType::kTerrestrial56);  // 4,5
  t.add_duplex(c, d, LineType::kTerrestrial56);  // 6,7
  return t;
}

TEST(MultipathTest, EqualCostPathsBothListed) {
  const Topology t = diamond();
  const LinkCosts costs(t.link_count(), 1.0);
  const MultipathSets mp = MultipathSets::compute(t, 0, costs);
  const auto hops = mp.next_hops(3);  // a -> d: via b or via c
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 2u);
}

TEST(MultipathTest, UnequalCostsCollapseToOne) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 1.5;  // a->b pricier
  const MultipathSets mp = MultipathSets::compute(t, 0, costs);
  const auto hops = mp.next_hops(3);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0], 2u);
}

TEST(MultipathTest, SinglePathFirstHopIsAlwaysMember) {
  util::Rng rng{404};
  for (int trial = 0; trial < 10; ++trial) {
    const Topology t = net::build_topology(
        "random:nodes=14,extra=10,seed=" + std::to_string(404 + trial));
    LinkCosts costs(t.link_count());
    for (double& c : costs) c = 1.0 + static_cast<double>(rng.uniform_index(4));
    const SpfTree tree = Spf::compute(t, 0, costs);
    const MultipathSets mp = MultipathSets::compute(t, 0, costs);
    for (net::NodeId dst = 1; dst < t.node_count(); ++dst) {
      const auto hops = mp.next_hops(dst);
      ASSERT_FALSE(hops.empty());
      EXPECT_NE(std::ranges::find(hops, tree.first_hop[dst]), hops.end());
    }
  }
}

/// Loop-freedom: any walk that picks arbitrary members of the multipath
/// sets strictly reduces remaining distance, so it reaches the destination.
/// A tolerance wider than any link cost would admit upstream hops but for
/// the downstream test.
TEST(MultipathTest, ArbitraryChoicesNeverLoop) {
  util::Rng rng{405};
  const Topology t = net::build_topology("random:nodes=16,extra=14,seed=405");
  LinkCosts costs(t.link_count());
  for (double& c : costs) c = 1.0 + static_cast<double>(rng.uniform_index(3));
  for (const double tolerance : {0.0, 100.0}) {
    const auto all = compute_all_multipath(t, costs, tolerance);
    for (net::NodeId src = 0; src < t.node_count(); ++src) {
      for (net::NodeId dst = 0; dst < t.node_count(); ++dst) {
        if (src == dst) continue;
        // Walk with randomized choices; must terminate within node_count
        // hops.
        net::NodeId at = src;
        int steps = 0;
        while (at != dst) {
          const auto hops = all[at].next_hops(dst);
          ASSERT_FALSE(hops.empty());
          at = t.link(hops[rng.uniform_index(hops.size())]).to;
          ASSERT_LE(++steps, static_cast<int>(t.node_count()))
              << "tolerance " << tolerance;
        }
      }
    }
  }
}

TEST(MultipathTest, NonPositiveCostIsRejected) {
  const Topology t = diamond();
  LinkCosts costs(t.link_count(), 1.0);
  costs[0] = 0.0;
  EXPECT_THROW((void)MultipathSets::compute(t, 0, costs),
               std::invalid_argument);
}

/// The paper's section 4.5 motivation, measured: one large flow bigger than
/// any single trunk. Single-path routing cannot help; multipath carries it.
TEST(MultipathTest, LargeFlowNeedsMultipath) {
  const Topology t = diamond();
  auto run = [&](bool multipath) {
    sim::NetworkConfig cfg;
    cfg.metric = metrics::MetricKind::kHnSpf;
    cfg.multipath = multipath;
    sim::Network net{t, cfg};
    traffic::TrafficMatrix m{4};
    m.set(0, 3, 84e3);  // 1.5x a 56 kb/s trunk
    net.add_traffic(m);
    net.run_for(util::SimTime::from_sec(120));
    net.reset_stats();
    net.run_for(util::SimTime::from_sec(120));
    return net.indicators(multipath ? "ecmp" : "single");
  };
  const auto single = run(false);
  const auto ecmp = run(true);
  // Single path: capped at ~56 kb/s with heavy drops. ECMP: ~84 kb/s.
  EXPECT_LT(single.internode_traffic_kbps, 62.0);
  EXPECT_GT(ecmp.internode_traffic_kbps, 78.0);
  EXPECT_LT(ecmp.packets_dropped_per_sec, single.packets_dropped_per_sec);
}

TEST(MultipathTest, MultipathStillDeliversEverythingUnderLightLoad) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::NetworkConfig cfg;
  cfg.multipath = true;
  sim::Network net{net87, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 100e3));
  net.run_for(util::SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 1000);
  EXPECT_EQ(net.stats().packets_dropped_loop, 0);
  EXPECT_EQ(net.stats().packets_dropped_unreachable, 0);
}

}  // namespace
}  // namespace arpanet::routing
