#include "src/analysis/convergence.h"

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"

namespace arpanet::analysis {
namespace {

using util::SimTime;

TEST(ConvergenceTest, FreshNetworkIsConverged) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::Network net{net87, sim::NetworkConfig{}};
  // Before any measurement period, all PSNs hold the identical initial map.
  EXPECT_TRUE(costs_converged(net));
}

TEST(ConvergenceTest, TrunkFailureSettlesQuickly) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::Network net{net87, sim::NetworkConfig{}};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 200e3));
  net.run_for(SimTime::from_sec(120));

  const auto report = measure_convergence(
      net, [&] { net.set_trunk_up(0, false); });
  EXPECT_TRUE(report.converged);
  // Flooding is fast: well under one measurement period.
  EXPECT_LT(report.settle_time, SimTime::from_sec(10));
  EXPECT_GT(report.updates_originated, 0);
  EXPECT_GT(report.update_packets, 0);
}

TEST(ConvergenceTest, DivergedCostsDetected) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::Network net{net87, sim::NetworkConfig{}};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 300e3));
  // Mid-flood there are instants of divergence; catch one by stepping the
  // simulator right after a disturbance without letting flooding finish.
  net.run_for(SimTime::from_sec(60));
  net.set_trunk_up(0, false);  // local PSNs update immediately
  EXPECT_FALSE(costs_converged(net));  // remote PSNs haven't heard yet
}

TEST(ConvergenceTest, TimesOutWhenDisturbanceRepeats) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::Network net{net87, sim::NetworkConfig{}};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 200e3));
  net.run_for(SimTime::from_sec(30));
  // A max_wait of ~0 cannot observe convergence.
  const auto report =
      measure_convergence(net, [&] { net.set_trunk_up(2, false); },
                          SimTime::from_ms(10), SimTime::from_ms(20));
  EXPECT_FALSE(report.converged);
}

TEST(MilnetBuilderTest, ShapeAndConnectivity) {
  const net::Topology topo = net::build_topology("milnet");
  EXPECT_EQ(topo.node_count(), 112u);
  EXPECT_TRUE(topo.is_connected());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_GE(topo.out_links(n).size(), 2u) << topo.node_name(n);
  }
  int satellite = 0;
  int slow = 0;
  for (const net::Link& l : topo.links()) {
    if (net::info(l.type).satellite) ++satellite;
    if (l.type == net::LineType::kTerrestrial9_6) ++slow;
  }
  EXPECT_EQ(satellite, 12);  // six satellite trunks, two simplex links each
  EXPECT_GT(slow, 20);      // the MILNET's slow-tail character
  // Deterministic: same builder call, same graph.
  const net::Topology again = net::build_topology("milnet");
  EXPECT_EQ(topo.link_count(), again.link_count());
}

TEST(ClusteredBuilderTest, RespectsSpecAndValidates) {
  const net::Topology topo =
      net::build_topology("clustered:clusters=4,per_cluster=8,seed=5");
  EXPECT_EQ(topo.node_count(), 32u);
  EXPECT_TRUE(topo.is_connected());

  EXPECT_THROW((void)net::build_topology("clustered:clusters=2,seed=5"),
               std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::analysis
