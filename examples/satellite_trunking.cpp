// satellite_trunking: heterogeneous lines under the revised metric
// (section 4.4).
//
// A mainland mesh with an island site reachable by two trunks: a fast 56
// kb/s satellite line (long propagation) and a slow 9.6 kb/s terrestrial
// cable. The paper's design goals, observable here:
//   * under light load the satellite is avoided (its idle cost is twice a
//     terrestrial 56k line) — delay-sensitive routing;
//   * under heavy load the satellite carries traffic (same max cost as a
//     terrestrial line) — "satellite bandwidth is utilized when the network
//     is heavily loaded";
//   * the 9.6 line is never priced out entirely (max 7x an idle 56k hop).

#include <cstdio>

#include "src/sim/network.h"

namespace {

using namespace arpanet;

struct Island {
  net::Topology topo;
  net::NodeId island{};
  net::NodeId gate_a{};
  net::NodeId gate_b{};
  net::LinkId sat{};    // island <- gate_a satellite 56k
  net::LinkId cable{};  // island <- gate_b terrestrial 9.6k
};

Island build() {
  Island n;
  // Mainland: a 5-node mesh.
  const auto m0 = n.topo.add_node("m0");
  const auto m1 = n.topo.add_node("m1");
  const auto m2 = n.topo.add_node("m2");
  const auto m3 = n.topo.add_node("m3");
  const auto m4 = n.topo.add_node("m4");
  n.island = n.topo.add_node("island");
  for (const auto& [a, b] : {std::pair{m0, m1}, {m1, m2}, {m2, m3}, {m3, m4},
                            {m4, m0}, {m0, m2}, {m1, m3}}) {
    n.topo.add_duplex(a, b, net::LineType::kTerrestrial56,
                      util::SimTime::from_ms(5));
  }
  n.gate_a = m0;
  n.gate_b = m2;
  n.sat = n.topo.add_duplex(n.gate_a, n.island, net::LineType::kSatellite56);
  n.cable = n.topo.add_duplex(n.gate_b, n.island, net::LineType::kTerrestrial9_6,
                              util::SimTime::from_ms(8));
  return n;
}

void run(double island_load_bps) {
  const Island isl = build();
  sim::NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  sim::Network net{isl.topo, cfg};

  traffic::TrafficMatrix m{isl.topo.node_count()};
  // Traffic between every mainland node and the island, both ways.
  const double per_pair = island_load_bps / 10.0;
  for (net::NodeId node = 0; node < 5; ++node) {
    m.set(node, isl.island, per_pair);
    m.set(isl.island, node, per_pair);
  }
  net.add_traffic(m);
  net.run_for(util::SimTime::from_sec(400));

  const std::size_t bucket =
      static_cast<std::size_t>(net.now().us() /
                               sim::Network::kStatsBucket.us()) -
      2;
  const net::Link& sat = isl.topo.link(isl.sat);
  const net::Link& cable = isl.topo.link(isl.cable);
  const double sat_util = net.link_utilization(sat.reverse, bucket);
  const double cable_util = net.link_utilization(cable.reverse, bucket);
  const auto ind = net.indicators("HN-SPF");
  std::printf("%10.0f | %8.2f %10.2f | %10.1f | sat cost %5.0f, cable cost %5.0f\n",
              island_load_bps / 1e3, sat_util, cable_util,
              ind.round_trip_delay_ms,
              net.psn(isl.island).reported_cost(sat.reverse),
              net.psn(isl.island).reported_cost(cable.reverse));
}

}  // namespace

int main() {
  std::printf("Island site with a 56 kb/s satellite trunk and a 9.6 kb/s"
              " cable, HN-SPF.\n\n");
  std::printf("load(kbps) | sat-util cable-util |    RTT(ms) | island's reported costs\n");
  for (const double load : {4e3, 10e3, 20e3, 35e3, 50e3}) {
    run(load);
  }
  std::printf("\nAt light load the cheap-delay path wins; as load grows the"
              " metric pulls the\nsatellite into service (its cost cap equals"
              " the terrestrial one) while the\n9.6 cable keeps a share"
              " instead of being priced out.\n");
  return 0;
}
