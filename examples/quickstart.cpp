// Quickstart: build a small network, run it under the revised metric, print
// what happened.
//
// This is the five-minute tour of the public API:
//   1. describe a topology (PSNs + trunks with line types),
//   2. wrap it in a sim::Network configured with a routing metric,
//   3. offer traffic from a matrix,
//   4. run, and read the Table-1-style indicators.
//
// This walks the low-level layers on purpose. For whole experiments —
// validated configs, parallel parameter sweeps, CSV/JSON output — start
// from exp::Experiment instead (see examples/arpanet_study.cpp and
// docs/experiments.md).

#include <cstdio>

#include "src/net/builders/registry.h"
#include "src/sim/network.h"

int main() {
  using namespace arpanet;

  // A two-region network: the paper's figure-1 shape. Two 56 kb/s trunks,
  // A (A0-B0) and B (A3-B3), carry all inter-region traffic.
  const net::Topology two = net::build_topology("two-region:per_region=6");
  const net::LinkId link_a =
      two.link_between(two.node_by_name("A0"), two.node_by_name("B0"));
  const net::LinkId link_b =
      two.link_between(two.node_by_name("A3"), two.node_by_name("B3"));

  sim::NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;  // the revised metric
  sim::Network network{two, cfg};

  // Offer 60 kb/s of uniform traffic — more than one trunk's capacity, so
  // the A/B split matters.
  network.add_traffic(
      traffic::TrafficMatrix::uniform(two.node_count(), 60e3));

  network.run_for(util::SimTime::from_sec(120));  // warm up
  network.reset_stats();
  network.run_for(util::SimTime::from_sec(300));  // measure

  const stats::NetworkIndicators ind = network.indicators("HN-SPF");
  std::printf("quickstart: two-region network under %s\n", ind.label.c_str());
  std::printf("  delivered traffic   %8.1f kb/s\n", ind.internode_traffic_kbps);
  std::printf("  round-trip delay    %8.1f ms\n", ind.round_trip_delay_ms);
  std::printf("  mean path length    %8.2f hops (min possible %.2f)\n",
              ind.actual_path_hops, ind.minimum_path_hops);
  std::printf("  routing updates     %8.3f per trunk per second\n",
              ind.updates_per_trunk_sec);
  std::printf("  drops               %8.3f per second\n",
              ind.packets_dropped_per_sec);

  // Look at how the two inter-region trunks shared the load.
  const double ua = network.link_utilization(
      link_a, network.now().us() / sim::Network::kStatsBucket.us() - 2);
  const double ub = network.link_utilization(
      link_b, network.now().us() / sim::Network::kStatsBucket.us() - 2);
  std::printf("  trunk A utilization %8.1f %%\n", 100.0 * ua);
  std::printf("  trunk B utilization %8.1f %%\n", 100.0 * ub);
  return 0;
}
