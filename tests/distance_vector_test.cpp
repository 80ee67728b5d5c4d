// Integration tests for the 1969 distance-vector routing mode inside the
// discrete-event simulator (the paper's section 2.1 baseline).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "src/net/builders/registry.h"
#include "src/routing/spf.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

using net::LineType;
using routing::RoutingAlgorithm;
using util::SimTime;

net::Topology line3() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(5));
  t.add_duplex(b, c, LineType::kTerrestrial56, SimTime::from_ms(5));
  return t;
}

NetworkConfig dv_config() {
  NetworkConfig cfg;
  cfg.algorithm = RoutingAlgorithm::kDistanceVector;
  return cfg;
}

TEST(DistanceVectorTest, TablesConvergeOnIdleNetwork) {
  const net::Topology topo = line3();
  Network net{topo, dv_config()};
  // A few exchange rounds (2/3 s each) are enough on a 3-node line.
  net.run_for(SimTime::from_sec(10));
  // Idle queues: metric = bias (1) per hop, so distance = hop count.
  EXPECT_DOUBLE_EQ(net.psn(0).dv_distance(2), 2.0);
  EXPECT_DOUBLE_EQ(net.psn(2).dv_distance(0), 2.0);
  EXPECT_EQ(net.psn(0).next_hop(1), 0u);
}

// The distance-vector mode is the 1969 distributed Bellman-Ford; these
// cases check that algorithm's textbook claims on the live tables.

/// Idle queues make every link's metric the bias, so within ten exchange
/// rounds a ring's distances are bias x hop count.
TEST(BellmanFordTest, ConvergesOnRing) {
  const net::Topology ring = net::build_topology("ring:nodes=6");
  const NetworkConfig cfg = dv_config();
  Network net{ring, cfg};
  net.run_for(Psn::kDvExchangePeriod * 10);
  EXPECT_DOUBLE_EQ(net.psn(0).dv_distance(3), 3.0 * Psn::kDvBias);
  EXPECT_DOUBLE_EQ(net.psn(0).dv_distance(1), 1.0 * Psn::kDvBias);
  for (net::NodeId s = 0; s < ring.node_count(); ++s) {
    for (net::NodeId d = 0; d < ring.node_count(); ++d) {
      const int gap = static_cast<int>(s > d ? s - d : d - s);
      const int hops = std::min(gap, 6 - gap);
      EXPECT_DOUBLE_EQ(net.psn(s).dv_distance(d), hops * Psn::kDvBias)
          << s << " -> " << d;
    }
  }
}

/// With static (idle, all-bias) link costs the converged tables must hold
/// the same distances Dijkstra computes, which are bias x min-hop lengths.
TEST(BellmanFordTest, AgreesWithSpfOnStaticCosts) {
  const net::Topology topo =
      net::build_topology("random:nodes=14,extra=10,seed=77");
  const NetworkConfig cfg = dv_config();
  Network net{topo, cfg};
  net.run_for(SimTime::from_sec(20));
  const routing::LinkCosts costs(topo.link_count(), Psn::kDvBias);
  const auto hops = routing::min_hop_lengths(topo);
  for (net::NodeId s = 0; s < topo.node_count(); ++s) {
    const routing::SpfTree tree = routing::Spf::compute(topo, s, costs);
    for (net::NodeId d = 0; d < topo.node_count(); ++d) {
      EXPECT_DOUBLE_EQ(net.psn(s).dv_distance(d), tree.dist[d])
          << s << " -> " << d;
      EXPECT_DOUBLE_EQ(net.psn(s).dv_distance(d), hops.at(s, d) * Psn::kDvBias)
          << s << " -> " << d;
    }
  }
}

/// Converged tables forward every pair along a loop-free min-hop route.
TEST(BellmanFordTest, NoLoopsAfterConvergence) {
  const net::Topology topo =
      net::build_topology("random:nodes=12,extra=8,seed=78");
  Network net{topo, dv_config()};
  net.run_for(SimTime::from_sec(20));
  const auto hops = routing::min_hop_lengths(topo);
  for (net::NodeId s = 0; s < topo.node_count(); ++s) {
    for (net::NodeId d = 0; d < topo.node_count(); ++d) {
      if (s == d) continue;
      const routing::PathTrace route = net.current_route(s, d);
      EXPECT_TRUE(route.reached) << s << " -> " << d;
      EXPECT_FALSE(route.looped) << s << " -> " << d;
      EXPECT_EQ(route.hops(), hops.at(s, d)) << s << " -> " << d;
    }
  }
}

TEST(DistanceVectorTest, CurrentRouteFollowsTheDistanceVectorTables) {
  // Square: a-b-d and a-c-d. The SPF tree never moves in 1969 mode, so a
  // route walked through it would keep using the dead a->b.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  const auto ab = t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(a, c, LineType::kTerrestrial56);
  t.add_duplex(b, d, LineType::kTerrestrial56);
  t.add_duplex(c, d, LineType::kTerrestrial56);

  Network net{t, dv_config()};
  net.run_for(SimTime::from_sec(10));
  net.set_trunk_up(ab, false);
  net.run_for(SimTime::from_sec(10));
  const routing::PathTrace route = net.current_route(a, d);
  ASSERT_TRUE(route.reached);
  EXPECT_FALSE(route.looped);
  ASSERT_EQ(route.hops(), 2);
  EXPECT_NE(route.links[0], ab);
  EXPECT_EQ(route.links[0], net.psn(a).next_hop(d));
  EXPECT_EQ(t.link(route.links[0]).to, c);
}

/// The section 2.1 failure, deterministically: on a converged 5-ring, 4
/// reaches 3 directly and 0 reaches 3 through 4. When trunk 4-3 fails, 4
/// at once picks 0's stale two-hop advertisement, while 0 still forwards
/// to 4 — a two-node loop that lasts until the exchanges count the stale
/// distance up past the route the other way round.
TEST(DistanceVectorTest, TrunkFailureLoopsTransientlyThenResolves) {
  const net::Topology ring = net::build_topology("ring:nodes=5");
  const net::LinkId four_three = ring.link_between(4, 3);
  ASSERT_NE(four_three, net::kInvalidLink);
  Network net{ring, dv_config()};
  net.run_for(SimTime::from_sec(10));
  const routing::PathTrace before = net.current_route(0, 3);
  ASSERT_TRUE(before.reached);
  EXPECT_EQ(before.hops(), 2);
  EXPECT_EQ(ring.link(before.links[0]).to, 4u);

  net.set_trunk_up(four_three, false);
  const routing::PathTrace during = net.current_route(0, 3);
  EXPECT_TRUE(during.looped);
  EXPECT_FALSE(during.reached);
  ASSERT_EQ(during.hops(), 2);  // 0 -> 4 -> 0
  EXPECT_EQ(ring.link(during.links[0]).to, 4u);
  EXPECT_EQ(ring.link(during.links[1]).to, 0u);

  net.run_for(SimTime::from_sec(5));
  for (net::NodeId s = 0; s < ring.node_count(); ++s) {
    for (net::NodeId d = 0; d < ring.node_count(); ++d) {
      if (s == d) continue;
      const routing::PathTrace after = net.current_route(s, d);
      EXPECT_TRUE(after.reached) << s << " -> " << d;
      EXPECT_FALSE(after.looped) << s << " -> " << d;
    }
  }
  EXPECT_EQ(net.current_route(0, 3).hops(), 3);  // 0 -> 1 -> 2 -> 3
}

TEST(DistanceVectorTest, DeliversTraffic) {
  const net::Topology topo = line3();
  Network net{topo, dv_config()};
  traffic::TrafficMatrix m{3};
  m.set(0, 2, 5e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 200);
  EXPECT_DOUBLE_EQ(net.stats().path_hops.mean(), 2.0);
}

TEST(DistanceVectorTest, ConsumesMuchMoreControlBandwidthThanSpf) {
  const net::Topology two = net::build_topology("two-region:per_region=5");
  auto run = [&](RoutingAlgorithm algo) {
    NetworkConfig cfg;
    cfg.algorithm = algo;
    Network net{two, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 20e3));
    net.run_for(SimTime::from_sec(100));
    return net.stats().update_packets_sent;
  };
  const long dv = run(RoutingAlgorithm::kDistanceVector);
  const long spf = run(RoutingAlgorithm::kSpf);
  // Full-table exchange every 2/3 s on every link far outpaces SPF's
  // significance-gated flooding (and each DV packet is bigger, growing with
  // the node count).
  EXPECT_GT(dv, 3 * spf);
}

TEST(DistanceVectorTest, ReroutesAfterTrunkFailure) {
  // Square topology: a-b-d and a-c-d.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  const auto ab = t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(a, c, LineType::kTerrestrial56);
  t.add_duplex(b, d, LineType::kTerrestrial56);
  t.add_duplex(c, d, LineType::kTerrestrial56);

  Network net{t, dv_config()};
  traffic::TrafficMatrix m{4};
  m.set(a, d, 8e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(30));
  net.set_trunk_up(ab, false);
  net.run_for(SimTime::from_sec(30));
  net.reset_stats();
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 300);
  EXPECT_EQ(net.stats().packets_dropped_unreachable, 0);
}

/// The section 2.1 story, measured: under load the volatile queue-length
/// metric wastes hops, and SPF never drops a packet to a loop. Whether a
/// given loaded run loops is up to its seed; the loop itself is shown
/// deterministically by TrunkFailureLoopsTransientlyThenResolves.
TEST(DistanceVectorTest, LoopsUnderLoadVersusSpf) {
  const net::Topology two = net::build_topology("two-region:per_region=5");
  auto run = [&](RoutingAlgorithm algo) {
    NetworkConfig cfg;
    cfg.algorithm = algo;
    cfg.metric = metrics::MetricKind::kDspf;
    cfg.hop_limit = 40;
    cfg.seed = 99;
    Network net{two, cfg};
    traffic::TrafficMatrix m{two.node_count()};
    const double per_pair = 90e3 / static_cast<double>(2 * 5 * 5);
    // Region 1 is A0..A4 (ids 0..4), region 2 is B0..B4 (ids 5..9).
    for (net::NodeId x = 0; x < 5; ++x) {
      for (net::NodeId y = 5; y < 10; ++y) {
        m.set(x, y, per_pair);
        m.set(y, x, per_pair);
      }
    }
    net.add_traffic(m);
    net.run_for(SimTime::from_sec(300));
    return net.stats();
  };
  const NetworkStats dv = run(RoutingAlgorithm::kDistanceVector);
  const NetworkStats spf = run(RoutingAlgorithm::kSpf);
  EXPECT_EQ(spf.packets_dropped_loop, 0);
  // The stale-information algorithm wastes hops relative to SPF.
  EXPECT_GE(dv.path_hops.mean(), spf.path_hops.mean() * 0.9);
}

TEST(DistanceVectorTest, NodeCrashHandledWithoutSpfUpdates) {
  // Taking trunks down in 1969 mode must not flood SPF-style updates; the
  // neighbors learn through the table exchanges.
  const net::Topology two = net::build_topology("two-region:per_region=4");
  const net::LinkId link_a =
      two.link_between(two.node_by_name("A0"), two.node_by_name("B0"));
  NetworkConfig cfg = dv_config();
  Network net{two, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 30e3));
  net.run_for(SimTime::from_sec(30));
  net.set_trunk_up(link_a, false);
  net.run_for(SimTime::from_sec(30));
  // Table exchanges are not link-state originations, and the failure
  // flooded none.
  EXPECT_EQ(net.stats().updates_originated, 0);
  EXPECT_GT(net.stats().update_packets_sent, 0);
  net.reset_stats();
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 1000);  // rerouted via link B
  net.set_trunk_up(link_a, true);
  net.run_for(SimTime::from_sec(30));
  EXPECT_GT(net.stats().packets_delivered, 1000);
  EXPECT_EQ(net.stats().updates_originated, 0);
  EXPECT_EQ(net.counters().updates_originated, 0u);  // the whole run
}

TEST(DistanceVectorTest, LineUpgradeFloodsNoLinkStateUpdate) {
  // A mid-run line upgrade rebuilds the link's metric, but in 1969 mode it
  // floods nothing: the tables pick the change up in their next exchanges.
  // Table exchanges are not link-state originations, so the run originates
  // none, and every PSN still holds each origin's sequence-0 seed.
  const net::Topology topo = net::build_topology("ring:nodes=6");
  Network net{topo, dv_config()};
  net.install_faults(
      FaultPlan::parse("upgrade:link=0,at_s=30,type=112kb-multitrunk"),
      SimTime::from_sec(60));
  net.run_for(SimTime::from_sec(60));
  EXPECT_EQ(net.stability().faults_applied, 1);
  EXPECT_GT(net.stats().update_packets_sent, 0);
  EXPECT_EQ(net.stats().updates_originated, 0);
  for (net::NodeId at = 0; at < topo.node_count(); ++at) {
    for (net::NodeId origin = 0; origin < topo.node_count(); ++origin) {
      const UpdateHandle h = net.psn(at).held_update(origin);
      EXPECT_EQ(net.update_pool().at(h).seq, 0u)
          << "PSN " << at << " holds a flooded update from " << origin;
    }
  }
}

/// Pins a loaded, faulted DV run byte for byte: 90 kb/s across the two
/// 56 kb/s inter-region trunks (queue drops and transient loops), one of
/// them down for 30 s and a line upgrade on the other. The expected values
/// were read off the tree whose PSN still kept its distance vectors in a
/// payload of their own, before the advertisement moved onto the routing
/// update's cost row; a refactor of the DV path must keep every one.
TEST(DistanceVectorTest, RunMatchesParentDigest) {
  const net::Topology two = net::build_topology("two-region:per_region=5");
  const net::LinkId a0_b0 =
      two.link_between(two.node_by_name("A0"), two.node_by_name("B0"));
  const net::LinkId a2_b2 =
      two.link_between(two.node_by_name("A2"), two.node_by_name("B2"));
  NetworkConfig cfg = dv_config();
  cfg.hop_limit = 40;
  cfg.seed = 31;
  Network net{two, cfg};
  net.install_faults(FaultPlan{}.upgrade_line(a2_b2, SimTime::from_sec(100),
                                              LineType::kMultiTrunk112),
                     SimTime::from_sec(180));
  std::int64_t hop_sum = 0;
  net.set_delivery_hook([&](const Packet& pkt) { hop_sum += pkt.hops; });
  net.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 90e3));
  net.run_for(SimTime::from_sec(60));
  net.set_trunk_up(a0_b0, false);
  net.run_for(SimTime::from_sec(30));
  net.set_trunk_up(a0_b0, true);
  net.run_for(SimTime::from_sec(90));
  const NetworkStats& st = net.stats();
  EXPECT_EQ(st.packets_delivered, 26'818);
  EXPECT_EQ(st.packets_dropped_queue, 1);
  EXPECT_EQ(st.packets_dropped_loop, 6);
  EXPECT_EQ(st.update_packets_sent, 7'442);
  EXPECT_EQ(hop_sum, 65'408);
}

TEST(DistanceVectorTest, DeterministicForSeed) {
  const net::Topology topo = line3();
  auto run = [&] {
    NetworkConfig cfg = dv_config();
    cfg.seed = 7;
    Network net{topo, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
    net.run_for(SimTime::from_sec(60));
    return net.stats().packets_delivered;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace arpanet::sim
