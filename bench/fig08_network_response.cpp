// Figure 8: "Overall Network Response To Reported Cost" — the Network
// Response Map. Traffic on the "average link" (normalized to base = 1 at a
// reported cost of one hop) as the link's reported cost varies, with every
// other link at the ambient one-hop cost.
//
// Paper anchors: the curve collapses quickly — "If the link reports a cost
// of 4, then over 90% of its base traffic will be shed" — and tiny changes
// around tie points move large amounts of traffic (the epsilon problem).

#include <cstdio>

#include "src/analysis/response_map.h"
#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

int main() {
  using namespace arpanet;
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix =
      sim::scenario_matrix(topo, sim::ScenarioConfig{}
                                     .with_shape(sim::TrafficShape::kPeakHour)
                                     .with_load_bps(400e3)
                                     .with_seed(1987));

  const auto map = analysis::NetworkResponseMap::build(topo, matrix);

  std::printf("# Figure 8: network response map (ARPANET-like topology, peak-hour matrix)\n");
  std::printf("# cost(hops)  traffic-fraction  across-link-stddev\n");
  const auto costs = map.sample_costs();
  const auto fracs = map.sample_fractions();
  const auto devs = map.sample_stddev();
  for (std::size_t i = 0; i < costs.size(); ++i) {
    std::printf("%10.2f %17.3f %19.3f\n", costs[i], fracs[i], devs[i]);
  }

  std::printf("\n# anchors: fraction at 4 hops = %.3f (paper: < 0.10);"
              " epsilon jump 1.0->1.25: %.3f -> %.3f\n",
              map.traffic_fraction(4.0), map.traffic_fraction(1.0),
              map.traffic_fraction(1.25));
  return 0;
}
