// Simulator validation: the discrete-event substrate against queueing
// theory and conservation laws. These tests justify trusting the Table-1 /
// fig-13 numbers the simulator produces.

#include <gtest/gtest.h>

#include "src/core/mm1.h"
#include "src/net/builders/registry.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

using net::LineType;
using util::SimTime;

net::Topology two_nodes(SimTime prop = SimTime::from_ms(10)) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56, prop);
  return t;
}

/// The queueing law the whole metric is built on: a Poisson-fed 56 kb/s
/// link at utilization rho shows mean system time ~ S/(1-rho), i.e. the
/// measured one-way delay matches core::delay_from_utilization.
class Mm1Validation : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Utilizations, Mm1Validation,
                         ::testing::Values(0.2, 0.4, 0.6, 0.75));

TEST_P(Mm1Validation, MeasuredDelayMatchesTheory) {
  const double rho = GetParam();
  const auto prop = SimTime::from_ms(10);
  const net::Topology topo = two_nodes(prop);
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kMinHop;  // routing out of the picture
  cfg.queue_capacity = 500;                   // effectively infinite
  Network net{topo, cfg};

  traffic::TrafficMatrix m{2};
  m.set(0, 1, rho * 56e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(60));
  net.reset_stats();
  net.run_for(SimTime::from_sec(1200));  // long window: tight confidence

  const double expected_ms =
      core::delay_from_utilization(rho, util::DataRate::kbps(56), prop).ms();
  const double measured_ms = net.stats().one_way_delay_ms.mean();
  // Service times are shifted-exponential rather than exactly exponential,
  // so allow 12% (M/G/1 waiting is slightly below M/M/1 here).
  EXPECT_NEAR(measured_ms, expected_ms, 0.12 * expected_ms) << "rho=" << rho;
  EXPECT_EQ(net.stats().packets_dropped_queue, 0);
}

/// Conservation: once sources stop and queues drain, every generated packet
/// was delivered or dropped — nothing is lost or duplicated by the
/// forwarding machinery.
class Conservation
    : public ::testing::TestWithParam<std::tuple<metrics::MetricKind, double>> {};

INSTANTIATE_TEST_SUITE_P(
    MetricsAndLoads, Conservation,
    ::testing::Combine(::testing::Values(metrics::MetricKind::kMinHop,
                                         metrics::MetricKind::kDspf,
                                         metrics::MetricKind::kHnSpf),
                       ::testing::Values(100e3, 500e3)));

TEST_P(Conservation, GeneratedEqualsDeliveredPlusDropped) {
  const auto [kind, load] = GetParam();
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig cfg;
  cfg.metric = kind;
  Network net{net87, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::peak_hour(net87.node_count(), load,
                                        util::Rng{42}));
  net.run_for(SimTime::from_sec(90));
  net.stop_traffic();
  net.run_for(SimTime::from_sec(60));  // drain

  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_generated, 1000);
  EXPECT_EQ(s.packets_generated,
            s.packets_delivered + s.packets_dropped_queue +
                s.packets_dropped_unreachable + s.packets_dropped_loop);
}

TEST(ConservationDv, HoldsForDistanceVectorToo) {
  const net::Topology two = net::build_topology("two-region:per_region=5");
  NetworkConfig cfg;
  cfg.algorithm = routing::RoutingAlgorithm::kDistanceVector;
  cfg.hop_limit = 50;
  Network net{two, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 80e3));
  net.run_for(SimTime::from_sec(90));
  net.stop_traffic();
  net.run_for(SimTime::from_sec(60));
  const NetworkStats& s = net.stats();
  EXPECT_EQ(s.packets_generated,
            s.packets_delivered + s.packets_dropped_queue +
                s.packets_dropped_unreachable + s.packets_dropped_loop);
}

/// Routing updates are high priority: they keep flowing (and reach remote
/// nodes) even when every data queue on the path is saturated.
TEST(UpdatePriorityTest, UpdatesPropagateThroughSaturation) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  cfg.queue_capacity = 10;
  Network net{topo, cfg};
  traffic::TrafficMatrix m{2};
  m.set(0, 1, 150e3);  // ~2.7x the trunk: permanently saturated
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(120));
  EXPECT_GT(net.stats().packets_dropped_queue, 1000);  // truly saturated
  // Node 1 still learned node 0's latest reported cost for link 0, which
  // by now reflects the overload (well above the idle floor).
  const double remote_view = net.psn(1).spf().costs()[0];
  EXPECT_DOUBLE_EQ(remote_view, net.psn(0).reported_cost(0));
  EXPECT_GT(remote_view, 70.0);
}

/// The busy-fraction bookkeeping agrees with offered load.
TEST(UtilizationAccounting, BusySecondsMatchOfferedLoad) {
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kMinHop;
  Network net{topo, cfg};
  traffic::TrafficMatrix m{2};
  m.set(0, 1, 28e3);  // rho = 0.5
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(600));
  // Average the per-bucket utilization over the run (skip the last,
  // possibly partial, bucket).
  const auto& series = net.link_busy_series(0);
  double sum = 0;
  const std::size_t buckets = series.bucket_count() - 1;
  for (std::size_t i = 0; i < buckets; ++i) {
    sum += series.bucket(i) / static_cast<double>(Network::kStatsBucket.us());
  }
  EXPECT_NEAR(sum / static_cast<double>(buckets), 0.5, 0.05);
}

/// Delivered hop counts always match a real path: never fewer hops than the
/// minimum-hop distance.
TEST(PathSanity, HopsNeverBeatMinimum) {
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig cfg;
  Network net{net87, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 200e3));
  net.run_for(SimTime::from_sec(120));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 1000);
  EXPECT_GE(s.path_hops.mean(), s.min_hops.mean());
  EXPECT_GE(s.path_hops.min(), 1.0);
}

}  // namespace
}  // namespace arpanet::sim
