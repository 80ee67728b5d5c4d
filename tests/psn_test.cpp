// PSN-level behaviours exercised through small purpose-built networks:
// direction independence, down-link advertisement, node crash/restart,
// forwarding edge cases.

#include <gtest/gtest.h>

#include "src/analysis/convergence.h"
#include "src/net/builders/registry.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

using net::LineType;
using util::SimTime;

TEST(PsnTest, DirectionsAreIndependent) {
  // Load only a->b; the reverse direction must keep its idle cost.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto ab = t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(5));
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  Network net{t, cfg};
  traffic::TrafficMatrix m{2};
  m.set(a, b, 45e3);  // ~80% of a->b only
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(300));

  const double fwd = net.psn(a).reported_cost(ab);
  const double rev = net.psn(b).reported_cost(t.link(ab).reverse);
  EXPECT_GT(fwd, 50.0);  // loaded direction shed territory
  EXPECT_LT(rev, 40.0);  // reverse stays at its floor
}

TEST(PsnTest, DownLinkAdvertisesSentinelCost) {
  const net::Topology two = net::build_topology("two-region:per_region=4");
  const net::LinkId link_a =
      two.link_between(two.node_by_name("A0"), two.node_by_name("B0"));
  NetworkConfig cfg;
  Network net{two, cfg};
  net.run_for(SimTime::from_sec(30));
  net.set_trunk_up(link_a, false);
  net.run_for(SimTime::from_sec(5));  // flood
  // Every PSN's map shows the sentinel for both directions.
  const auto& link = two.link(link_a);
  for (net::NodeId n = 0; n < two.node_count(); ++n) {
    EXPECT_DOUBLE_EQ(net.psn(n).spf().costs()[link.id], Psn::kDownLinkCost);
    EXPECT_DOUBLE_EQ(net.psn(n).spf().costs()[link.reverse], Psn::kDownLinkCost);
  }
}

TEST(PsnTest, NodeCrashIsRoutedAround) {
  // Ring of 6: node 3 crashes; 0<->2 traffic keeps flowing the short way,
  // 0->... traffic that used 3 reroutes the long way around.
  const net::Topology t = net::build_topology("ring:nodes=6");
  NetworkConfig cfg;
  Network net{t, cfg};
  traffic::TrafficMatrix m{6};
  m.set(0, 2, 5e3);
  m.set(2, 4, 5e3);  // 2->3->4 normally; must go 2->1->0->5->4 after crash
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  net.set_node_up(3, false);
  net.run_for(SimTime::from_sec(30));
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 300);
  EXPECT_EQ(s.packets_dropped_unreachable, 0);
  // The long detour shows up in hop counts: 2->4 is now 4 hops.
  EXPECT_GT(s.path_hops.mean(), 2.5);

  // Restart: after recovery and ease-in, paths shorten again.
  net.set_node_up(3, true);
  net.run_for(SimTime::from_sec(120));
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  EXPECT_LT(net.stats().path_hops.mean(), 2.5);
  EXPECT_TRUE(analysis::costs_converged(net));
}

TEST(PsnTest, ReportedCostQueriesValidateLink) {
  const net::Topology t = net::build_topology("ring:nodes=4");
  Network net{t, NetworkConfig{}};
  // Link 2 belongs to node 1, not node 0.
  EXPECT_THROW((void)net.psn(0).reported_cost(2), std::out_of_range);
}

TEST(PsnTest, MinHopNetworkStillSendsReliabilityUpdates) {
  const net::Topology t = net::build_topology("ring:nodes=4");
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kMinHop;
  Network net{t, cfg};
  net.run_for(SimTime::from_sec(200));
  // Static metric, no traffic: only the 50 s reliability rule fires.
  // ~4 updates per node in 200 s (first at ~50 s).
  EXPECT_GE(net.stats().updates_originated, 3 * 4);
  EXPECT_LE(net.stats().updates_originated, 5 * 4);
}

TEST(PsnTest, HopCountMatchesTraceLength) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(b, c, LineType::kTerrestrial56);
  t.add_duplex(c, d, LineType::kTerrestrial56);
  Network net{t, NetworkConfig{}};
  traffic::TrafficMatrix m{4};
  m.set(a, d, 3e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_DOUBLE_EQ(net.stats().path_hops.mean(), 3.0);
  EXPECT_DOUBLE_EQ(net.stats().path_hops.min(), 3.0);
  EXPECT_DOUBLE_EQ(net.stats().path_hops.max(), 3.0);
}

}  // namespace
}  // namespace arpanet::sim
