// Cross-cutting property sweeps: invariants that must hold for every
// (metric x line type x topology) combination, run as parameterized suites.

#include <gtest/gtest.h>

#include "src/analysis/metric_map.h"
#include "src/analysis/response_map.h"
#include "src/net/builders/registry.h"
#include "src/sim/host_flow.h"
#include "src/sim/network.h"

namespace arpanet {
namespace {

using metrics::MetricKind;
using net::LineType;

const core::LineParamsTable kParams = core::LineParamsTable::arpanet_defaults();

// ---- metric maps: every kind on every line type ----

class MetricMapSweep
    : public ::testing::TestWithParam<std::tuple<MetricKind, int>> {};

INSTANTIATE_TEST_SUITE_P(
    KindsAndTypes, MetricMapSweep,
    ::testing::Combine(::testing::Values(MetricKind::kMinHop, MetricKind::kDspf,
                                         MetricKind::kHnSpf),
                       ::testing::Range(0, net::kLineTypeCount)));

TEST_P(MetricMapSweep, MonotoneBoundedAndNormalizedAboveOneHop) {
  const auto [kind, type_index] = GetParam();
  const auto type = static_cast<LineType>(type_index);
  const analysis::MetricMap map{kind, type, kParams,
                                net::info(type).default_prop_delay};
  double prev = 0.0;
  for (double u = 0.0; u <= 1.0 + 1e-9; u += 0.02) {
    const double cost = map.cost(u);
    EXPECT_GE(cost, prev) << to_string(kind) << " u=" << u;  // monotone
    prev = cost;
    // Faster-than-reference lines price below one 56k hop by design, but
    // never below ~0.8 of it (the fastest type's base is 26/30).
    EXPECT_GE(map.normalized_cost(u), kind == MetricKind::kMinHop ? 1.0 : 0.85);
  }
  EXPECT_GE(map.max_cost(), map.idle_cost());
}

class HnMapSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Types, HnMapSweep,
                         ::testing::Range(0, net::kLineTypeCount));

TEST_P(HnMapSweep, NeverExceedsThreeHopsOfItsOwnBase) {
  const auto type = static_cast<LineType>(GetParam());
  const analysis::MetricMap map{MetricKind::kHnSpf, type, kParams,
                                util::SimTime::zero()};
  const double base = kParams.for_type(type).base_min;
  for (double u = 0.0; u <= 1.0 + 1e-9; u += 0.05) {
    EXPECT_LE(map.cost(u) / base, 3.0 + 1e-9);
  }
}

// ---- response maps on several topologies ----

class ResponseMapSweep : public ::testing::TestWithParam<int> {
 protected:
  net::Topology make_topo() const {
    switch (GetParam()) {
      case 0: return net::build_topology("ring:nodes=8");
      case 1: return net::build_topology("grid:width=4,height=3");
      default: return net::build_topology("arpanet87");
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Topologies, ResponseMapSweep, ::testing::Range(0, 3));

TEST_P(ResponseMapSweep, BaseOneMonotoneNonNegative) {
  const net::Topology topo = make_topo();
  const auto matrix = traffic::TrafficMatrix::uniform(topo.node_count(), 1e6);
  const auto map = analysis::NetworkResponseMap::build(topo, matrix);
  EXPECT_NEAR(map.traffic_fraction(1.0), 1.0, 1e-9);
  double prev = 2.0;
  for (double c = 0.8; c <= 9.0; c += 0.1) {
    const double f = map.traffic_fraction(c);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, prev + 1e-9);
    prev = f;
  }
}

// ---- incremental SPF under sentinel (link-down) costs ----

TEST(IncrementalSentinelTest, DownCostExtremesMatchFullRecompute) {
  util::Rng rng{321};
  const net::Topology t =
      net::build_topology("random:nodes=14,extra=10,seed=321");
  routing::LinkCosts costs(t.link_count(), 30.0);
  routing::IncrementalSpf inc{t, 0, costs};
  for (int step = 0; step < 40; ++step) {
    const auto link = static_cast<net::LinkId>(rng.uniform_index(t.link_count()));
    // Flip between normal, saturated and down-sentinel costs.
    const double choices[] = {30.0, 90.0, 1e7};
    const double cost = choices[rng.uniform_index(3)];
    inc.set_cost(link, cost);
    costs[link] = cost;
    const routing::SpfTree full = routing::Spf::compute(t, 0, costs);
    for (net::NodeId v = 0; v < t.node_count(); ++v) {
      ASSERT_DOUBLE_EQ(inc.tree().dist[v], full.dist[v]) << step;
      ASSERT_EQ(inc.tree().first_hop[v], full.first_hop[v]) << step;
    }
  }
}

// ---- whole-network determinism at full scale ----

TEST(DeterminismTest, Arpanet87RunIsBitReproducible) {
  auto run = [] {
    const net::Topology net87 = net::build_topology("arpanet87");
    sim::NetworkConfig cfg;
    cfg.seed = 0xabcdef;
    sim::Network net{net87, cfg};
    net.add_traffic(traffic::TrafficMatrix::peak_hour(
        net87.node_count(), 400e3, util::Rng{9}));
    net.run_for(util::SimTime::from_sec(120));
    const auto& s = net.stats();
    return std::tuple{s.packets_generated, s.packets_delivered,
                      s.packets_dropped_queue, s.updates_originated,
                      s.update_packets_sent, s.one_way_delay_ms.mean(),
                      s.bits_delivered};
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismTest, HostFlowRunIsReproducible) {
  auto run = [] {
    const net::Topology two = net::build_topology("two-region:per_region=4");
    sim::Network net{two, sim::NetworkConfig{}};
    sim::HostFlowLayer host{net, sim::HostFlowConfig{}};
    host.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 80e3));
    net.run_for(util::SimTime::from_sec(90));
    return std::tuple{host.messages_completed(), host.retransmissions(),
                      host.message_delay_ms().mean()};
  };
  EXPECT_EQ(run(), run());
}

// ---- live route queries ----

TEST(CurrentRouteTest, MatchesDeliveredHops) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::Network net{net87, sim::NetworkConfig{}};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 100e3));
  net.run_for(util::SimTime::from_sec(60));
  // Between updates, routes exist and terminate for every pair.
  for (net::NodeId s = 0; s < net87.node_count(); s += 7) {
    for (net::NodeId d = 0; d < net87.node_count(); d += 5) {
      if (s == d) continue;
      const routing::PathTrace r = net.current_route(s, d);
      EXPECT_TRUE(r.reached);
      EXPECT_FALSE(r.looped);
      EXPECT_GE(r.hops(), 1);
    }
  }
  const auto route = net.current_route(net87.node_by_name("MIT"),
                                       net87.node_by_name("UCLA"));
  EXPECT_GE(route.hops(), 3);  // coast to coast is never adjacent
}

// ---- host-flow sanity across windows ----

class GoodputBound : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Windows, GoodputBound, ::testing::Values(1, 2, 8));

TEST_P(GoodputBound, GoodputNeverExceedsOffered) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, net::LineType::kTerrestrial56);
  sim::Network net{t, sim::NetworkConfig{}};
  sim::HostFlowConfig hcfg;
  hcfg.window = GetParam();
  sim::HostFlowLayer host{net, hcfg};
  host.add_pair(a, b, 30e3);
  net.run_for(util::SimTime::from_sec(200));
  EXPECT_LE(host.goodput_bps(), 33e3);  // offered + sampling slack
  EXPECT_GT(host.goodput_bps(), 20e3);
  EXPECT_LE(host.messages_completed(), host.messages_offered());
}

}  // namespace
}  // namespace arpanet
