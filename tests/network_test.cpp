// Integration tests: PSNs + SPF + metrics + flooding + traffic, end to end.

#include "src/sim/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/net/builders/registry.h"
#include "src/obs/trace_sink.h"
#include "src/sim/scenario.h"
#include "src/util/alloc_guard.h"

namespace arpanet::sim {
namespace {

using metrics::MetricKind;
using net::LineType;
using util::SimTime;

net::Topology two_nodes() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(10));
  return t;
}

net::Topology line3() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(5));
  t.add_duplex(b, c, LineType::kTerrestrial56, SimTime::from_ms(5));
  return t;
}

TEST(NetworkTest, DeliversPacketsOnPointToPoint) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3));  // light load
  net.run_for(SimTime::from_sec(60));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 500);
  EXPECT_EQ(s.packets_dropped_queue, 0);
  EXPECT_EQ(s.packets_dropped_unreachable, 0);
  EXPECT_DOUBLE_EQ(s.path_hops.mean(), 1.0);
  // One-way delay: ~10 ms prop + ~10.7 ms transmission + light queueing.
  EXPECT_GT(s.one_way_delay_ms.mean(), 15.0);
  EXPECT_LT(s.one_way_delay_ms.mean(), 40.0);
}

TEST(NetworkTest, RejectsAHopLimitBeyondThePacketsHopCounter) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  for (const int accepted : {1, 65535}) {
    cfg.hop_limit = accepted;
    EXPECT_NO_THROW(Network(topo, cfg)) << accepted;
  }
  // Packet::hops is 16-bit, so 65536 could never trip; a limit below 1
  // would silently behave as 1.
  for (const int rejected : {65536, 0, -1}) {
    cfg.hop_limit = rejected;
    EXPECT_THROW(Network(topo, cfg), std::invalid_argument) << rejected;
  }
}

TEST(NetworkTest, RejectsANonPositiveQueueCapacity) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.queue_capacity = 1;
  EXPECT_NO_THROW(Network(topo, cfg));
  for (const int capacity : {0, -1}) {
    cfg.queue_capacity = capacity;  // would drop every packet, or wrap
    EXPECT_THROW(Network(topo, cfg), std::invalid_argument);
  }
}

TEST(NetworkTest, RejectsANonPositiveMeasurementPeriod) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.measurement_period = SimTime::from_us(1);
  EXPECT_NO_THROW(Network(topo, cfg));
  // Zero re-arms the period timers forever at one instant; negative
  // schedules into the past.
  for (const std::int64_t us : {0, -5}) {
    cfg.measurement_period = SimTime::from_us(us);
    EXPECT_THROW(Network(topo, cfg), std::invalid_argument);
  }
}

TEST(NetworkTest, RejectsAMeasurementPeriodBeyondTheBound) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  NetworkConfig cfg;
  cfg.measurement_period = Network::kMaxMeasurementPeriod;
  EXPECT_NO_THROW(Network(topo, cfg));
  // 9.2e18 us once overflowed the first period's schedule and aborted with
  // "scheduling into the past".
  for (const std::int64_t us :
       {Network::kMaxMeasurementPeriod.us() + 1, std::int64_t{9'200'000'000'000'000'000}}) {
    cfg.measurement_period = SimTime::from_us(us);
    EXPECT_THROW(Network(topo, cfg), std::invalid_argument) << us;
  }
}

TEST(NetworkTest, RejectsANonFiniteSignificanceThresholdOverride) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  for (const double threshold : {-1.0, 0.0, 14.0}) {
    cfg.significance_threshold_override = threshold;
    EXPECT_NO_THROW(Network(topo, cfg)) << threshold;
  }
  // NaN would silently fall back to the metric's threshold; +inf would
  // widen the report-to-report movement check until it never trips.
  for (const double threshold : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()}) {
    cfg.significance_threshold_override = threshold;
    EXPECT_THROW(Network(topo, cfg), std::invalid_argument) << threshold;
  }
}

TEST(NetworkTest, InstallFaultsRejectsAnUpgradeItsLineParametersCannotRun) {
  // The upgraded line's HN-SPF metric is built when the plan is installed,
  // so line parameters the new type cannot run with fail before the run,
  // not inside it.
  const net::Topology topo = net::build_topology("ring:nodes=4");
  NetworkConfig cfg;
  cfg.line_params.set(LineType::kMultiTrunk112,
                      core::LineTypeParams{30.0, 20.0, 0.5});  // max < min
  Network net{topo, cfg};
  EXPECT_THROW(net.install_faults(FaultPlan::parse("upgrade:link=0,at_s=5,"
                                                   "type=112kb-multitrunk"),
                                  SimTime::from_sec(10)),
               std::invalid_argument);
}

TEST(NetworkTest, RejectsMultipathUnderDistanceVector) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.multipath = true;
  EXPECT_NO_THROW(Network(topo, cfg));
  // The 1969 algorithm forwards on its one distance-vector next hop.
  cfg.algorithm = routing::RoutingAlgorithm::kDistanceVector;
  EXPECT_THROW(Network(topo, cfg), std::invalid_argument);
}

TEST(NetworkTest, ConstructionReservesPacketSlotsWithoutCreatingThem) {
  const net::Topology topo = net::build_topology("leo-grid:nodes=256");
  const NetworkConfig cfg;
  Network net{topo, cfg};
  // The queue-bound working set is reserved as address space only: no slot
  // exists until a packet needs one.
  EXPECT_EQ(net.packet_pool().slots(), 0u);
  EXPECT_EQ(net.counters().packet_pool_slots, 0u);
  EXPECT_GE(net.packet_pool().capacity(),
            topo.link_count() * (static_cast<std::size_t>(cfg.queue_capacity) + 2));
}

TEST(NetworkTest, ConstructionKeepsNoPerPsnCostMap) {
  // Every PSN reads link costs from the updates it holds (one per origin,
  // shared through the update pool), so building a 256-node, 1,024-link
  // network allocates no per-PSN cost map (8 B per link) and no per-PSN
  // sequence vector (8 B per origin): 2.5 MiB at this size, of which the
  // held handles and SPF row pointers give back 0.75 MiB. Construction
  // requested 9,077,408 bytes with those maps and 7,197,024 without; the
  // bound sits between the two.
  const net::Topology topo = net::build_topology("leo-grid:nodes=256");
  topo.finalize();
  const NetworkConfig cfg;
  ASSERT_EQ(cfg.metric, MetricKind::kHnSpf);
  const util::AllocGuard guard;
  const Network net{topo, cfg};
  EXPECT_LT(guard.bytes(), 8'000'000u);
}

/// Bytes requested while building a default (HN-SPF) Network over `spec`.
std::size_t construction_bytes(const std::string& spec) {
  const net::Topology topo = net::build_topology(spec);
  topo.finalize();
  const util::AllocGuard guard;
  const Network net{topo, NetworkConfig{}};
  return guard.bytes();
}

TEST(NetworkTest, ResidentSpfKeepsThreeArraysPerDestination) {
  // The state that grows as N^2 is, per PSN per destination, the resident
  // tree's dist (8 B), parent_link (4 B) and first_hop (4 B), the SPF's row
  // pointer (8 B) and the held update handle (4 B), plus the network's
  // 2-byte min-hop entry: 30 B. Child lists (12 B) and resident hop counts
  // (4 B) would add 16 B, over 1 MiB at 256 nodes: with them the build
  // requested 7,194,976 bytes.
  constexpr std::size_t kQuadraticBytes = 8 + 4 + 4 + 8 + 4 + 2;
  const std::size_t small = construction_bytes("leo-grid:nodes=256");
  EXPECT_LT(small, 6'300'000u);

  // Everything else grows with nodes and links, and a leo-grid has four
  // times as many of both at 1,024 nodes: the larger build may request the
  // quadratic part plus four times the smaller one's remainder, with 5%
  // slack on that remainder.
  const std::size_t small_quadratic = kQuadraticBytes * 256 * 256;
  ASSERT_GT(small, small_quadratic);
  const std::size_t bound = kQuadraticBytes * 1024 * 1024 +
                            (small - small_quadratic) * 4 * 105 / 100;
  EXPECT_LT(construction_bytes("leo-grid:nodes=1024"), bound);
}

TEST(NetworkTest, QuiescedNetworkHoldsOneVersionPerOrigin) {
  const net::Topology topo = net::build_topology("leo-grid:nodes=64");
  const NetworkConfig cfg;
  ASSERT_EQ(cfg.metric, MetricKind::kHnSpf);
  Network net{topo, cfg};
  // Built, every PSN holds the same sequence-0 seed from each origin, and
  // the seeds never counted as in flight.
  EXPECT_EQ(net.updates_in_flight(), 0u);
  EXPECT_EQ(net.update_pool().in_use(), topo.node_count());
  EXPECT_LE(net.update_pool().peak_in_flight(), 1u);
  net.add_traffic(traffic::TrafficMatrix::uniform(topo.node_count(), 200e3));
  FaultPlan plan;
  plan.flap_link(0, SimTime::from_sec(15), SimTime::from_sec(5),
                 SimTime::from_sec(20), 3);
  net.install_faults(plan, SimTime::from_sec(300));

  // Mid-flood, the updates being flooded count as in flight.
  bool saw_flight = false;
  for (int i = 0; i < 3000 && !saw_flight; ++i) {
    net.run_for(SimTime::from_ms(10));
    saw_flight = net.updates_in_flight() > 0;
  }
  EXPECT_TRUE(saw_flight);

  // Past the last flap, with traffic stopped, wait for a gap between
  // floods.
  net.run_for(SimTime::from_sec(90));
  net.stop_traffic();
  net.run_for(SimTime::from_sec(30));
  for (int i = 0; i < 300 && net.updates_in_flight() > 0; ++i) {
    net.run_for(SimTime::from_ms(100));
  }
  ASSERT_EQ(net.updates_in_flight(), 0u);
  // Every PSN holds the same latest update from each origin, and nothing
  // else is live: one version per origin.
  EXPECT_EQ(net.update_pool().in_use(), topo.node_count());
  EXPECT_EQ(net.update_pool().held(), topo.node_count());
  const routing::LinkCosts reference = net.psn(0).spf().costs();
  for (net::NodeId n = 1; n < topo.node_count(); ++n) {
    EXPECT_EQ(net.psn(n).spf().costs(), reference) << "PSN " << n;
    for (net::NodeId origin = 0; origin < topo.node_count(); ++origin) {
      ASSERT_EQ(net.psn(n).held_update(origin), net.psn(0).held_update(origin));
    }
  }
  EXPECT_GT(net.stats().updates_originated, 2 * static_cast<long>(topo.node_count()));
}

TEST(NetworkTest, ForwardsAcrossIntermediateNode) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  traffic::TrafficMatrix m{3};
  m.set(0, 2, 5e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_delivered, 200);
  EXPECT_DOUBLE_EQ(net.stats().path_hops.mean(), 2.0);
  EXPECT_DOUBLE_EQ(net.stats().min_hops.mean(), 2.0);
}

TEST(NetworkTest, DeterministicForSeed) {
  const net::Topology topo = line3();
  auto run = [&](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.seed = seed;
    Network net{topo, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(3, 30e3));
    net.run_for(SimTime::from_sec(120));
    return std::tuple{net.stats().packets_delivered,
                      net.stats().one_way_delay_ms.mean(),
                      net.stats().updates_originated};
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(std::get<0>(run(1)), std::get<0>(run(2)));
}

TEST(NetworkTest, OverloadCausesQueueDrops) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.queue_capacity = 10;
  Network net{topo, cfg};
  // 2x the 56 kb/s capacity in one direction.
  traffic::TrafficMatrix m{2};
  m.set(0, 1, 112e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  EXPECT_GT(net.stats().packets_dropped_queue, 100);
  // Drop series recorded them in time buckets.
  double total = 0;
  for (const double v : net.drop_series().values()) total += v;
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(net.stats().packets_dropped_queue));
}

TEST(NetworkTest, RoutingUpdatesFlowAndAreCounted) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  // The 50 s reliability rule alone forces ~2+ updates per node.
  EXPECT_GE(s.updates_originated, 6);
  EXPECT_GT(s.update_packets_sent, s.updates_originated);
}

TEST(NetworkTest, CostsPropagateToAllNodes) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
  net.run_for(SimTime::from_sec(180));
  // After several measurement periods, node 2's view of link 0 (node 0's
  // outgoing link) equals what node 0 last reported.
  const double reported = net.psn(0).reported_cost(0);
  EXPECT_DOUBLE_EQ(net.psn(2).spf().costs()[0], reported);
  EXPECT_DOUBLE_EQ(net.psn(1).spf().costs()[0], reported);
}

TEST(NetworkTest, HnCostsEaseInFromMax) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{topo, cfg};
  obs::RecordingTraceSink sink{topo.link_count()};
  net.attach_trace_sink(&sink);
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 5e3));
  net.run_for(SimTime::from_sec(120));
  const auto& trace = sink.costs(0);
  ASSERT_GE(trace.size(), 3u);
  // Starts high (eased in from 90) and declines toward the floor (~31).
  EXPECT_GT(trace.front().second, 70.0);
  EXPECT_LT(trace.back().second, 40.0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].second, trace[i - 1].second);
  }
}

TEST(NetworkTest, TrunkDownReroutesTraffic) {
  // Square: a-b-d and a-c-d. Kill a-b; traffic a->d must keep flowing via c.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  const auto ab = t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(a, c, LineType::kTerrestrial56);
  t.add_duplex(b, d, LineType::kTerrestrial56);
  t.add_duplex(c, d, LineType::kTerrestrial56);

  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{t, cfg};
  traffic::TrafficMatrix m{4};
  m.set(a, d, 10e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  net.set_trunk_up(ab, false);
  net.run_for(SimTime::from_sec(30));  // let the update flood + reroute
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 500);
  // All deliveries go the c way: still 2 hops.
  EXPECT_DOUBLE_EQ(s.path_hops.mean(), 2.0);
  // And the b-side trunk is idle.
  const std::size_t bucket = static_cast<std::size_t>(
      (net.now() - SimTime::from_sec(60)).us() / Network::kStatsBucket.us());
  EXPECT_DOUBLE_EQ(net.link_utilization(t.link(ab).id, bucket), 0.0);
}

TEST(NetworkTest, TrunkBackUpIsEasedIn) {
  net::Topology t = two_nodes();
  // Second parallel trunk so the network stays connected.
  const auto extra = t.add_duplex(0, 1, LineType::kTerrestrial56);
  NetworkConfig cfg;
  cfg.metric = MetricKind::kHnSpf;
  Network net{t, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3));
  net.run_for(SimTime::from_sec(100));
  net.set_trunk_up(extra, false);
  net.run_for(SimTime::from_sec(100));
  EXPECT_DOUBLE_EQ(net.psn(0).reported_cost(extra), Psn::kDownLinkCost);
  net.set_trunk_up(extra, true);
  // Immediately after up: advertised at its maximum cost (ease-in).
  EXPECT_DOUBLE_EQ(net.psn(0).reported_cost(extra), 90.0);
  net.run_for(SimTime::from_sec(100));
  EXPECT_LT(net.psn(0).reported_cost(extra), 90.0);
}

TEST(NetworkTest, IndicatorsAreConsistent) {
  const net::Topology topo = line3();
  NetworkConfig cfg;
  Network net{topo, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(3, 30e3));
  net.run_for(SimTime::from_sec(60));
  net.reset_stats();
  net.run_for(SimTime::from_sec(120));
  const auto ind = net.indicators("test");
  EXPECT_NEAR(ind.internode_traffic_kbps, 30.0, 6.0);
  EXPECT_GT(ind.round_trip_delay_ms, 0.0);
  EXPECT_GE(ind.actual_path_hops, ind.minimum_path_hops);
  EXPECT_GT(ind.update_period_per_node_sec, 0.0);
  // 50 s reliability cap, plus slack for the staggered period phases.
  EXPECT_LE(ind.update_period_per_node_sec, 55.0);
}

TEST(NetworkTest, MetricKindsAllRun) {
  const net::Topology topo = line3();
  for (const MetricKind kind :
       {MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf}) {
    NetworkConfig cfg;
    cfg.metric = kind;
    Network net{topo, cfg};
    net.add_traffic(traffic::TrafficMatrix::uniform(3, 20e3));
    net.run_for(SimTime::from_sec(60));
    EXPECT_GT(net.stats().packets_delivered, 100) << to_string(kind);
  }
}

TEST(NetworkTest, RejectsDisconnectedTopologyAndBadMatrix) {
  net::Topology t;
  t.add_node("a");
  t.add_node("b");
  EXPECT_THROW((Network{t, NetworkConfig{}}), std::invalid_argument);

  const net::Topology ok = two_nodes();
  Network net{ok, NetworkConfig{}};
  EXPECT_THROW(net.add_traffic(traffic::TrafficMatrix{5}),
               std::invalid_argument);
}

TEST(NetworkDeathTest, SecondAddTrafficDies) {
  const net::Topology topo = two_nodes();
  Network net{topo, NetworkConfig{}};
  net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3));
  EXPECT_DEATH(net.add_traffic(traffic::TrafficMatrix::uniform(2, 10e3)),
               "add_traffic may be called at most once");
}

TEST(ScenarioTest, RunScenarioProducesIndicators) {
  const net::Topology topo = line3();
  ScenarioConfig cfg;
  cfg.offered_load_bps = 20e3;
  cfg.warmup = SimTime::from_sec(30);
  cfg.window = SimTime::from_sec(60);
  cfg.shape = TrafficShape::kUniform;
  cfg.label = "x";
  const ScenarioResult r = run_scenario(topo, cfg);
  EXPECT_EQ(r.indicators.label, "x");
  EXPECT_GT(r.stats.packets_delivered, 100);
}

}  // namespace
}  // namespace arpanet::sim
