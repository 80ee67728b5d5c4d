// Appendix: the MILNET deployment ("it has been successfully deployed in
// several major networks, including the MILNET" — abstract; the detailed
// MILNET study is the paper's reference [2]).
//
// The same before/after comparison as Table 1, on a MILNET-like network:
// ~112 nodes in 7 clusters, a larger share of 9.6 kb/s tails, satellite
// trunks to two overseas clusters. Demonstrates that the revised metric's
// gains are not an artifact of the ARPANET topology.

#include <cstdio>
#include <iostream>

#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

int main() {
  using namespace arpanet;
  const net::Topology topo = net::build_topology("milnet");
  std::printf("# MILNET-like network: %zu nodes, %zu trunks\n",
              topo.node_count(), topo.trunk_count());

  const sim::ScenarioConfig base = sim::ScenarioConfig{}
                                       .with_shape(sim::TrafficShape::kPeakHour)
                                       .with_warmup(util::SimTime::from_sec(150))
                                       .with_window(util::SimTime::from_sec(300))
                                       .with_seed(0x83);

  const auto before = sim::run_scenario(
      topo, sim::ScenarioConfig{base}
                .with_metric(metrics::MetricKind::kDspf)
                .with_load_bps(700e3));
  const auto after = sim::run_scenario(
      topo, sim::ScenarioConfig{base}
                .with_metric(metrics::MetricKind::kHnSpf)
                .with_load_bps(790e3));  // +13%, mirroring the ARPANET study

  stats::print_table1(std::cout, before.indicators, after.indicators);
  std::printf("\n# expected: the same directions as Table 1 on a network"
              " twice the ARPANET's size\n# with a slower, more heterogeneous"
              " trunk mix.\n");
  return 0;
}
