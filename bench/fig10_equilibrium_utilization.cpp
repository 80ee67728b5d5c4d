// Figure 10: "Equilibrium Traffic for a Heavily Utilized Line" —
// equilibrium link utilization as a function of min-hop offered load, for
// min-hop, D-SPF and HN-SPF.
//
// Paper shape: min-hop tracks the load until it pins (oversubscribed) at
// 100%; HN-SPF acts like min-hop up to ~50% then sheds, sustaining higher
// utilization than D-SPF across the overload range ("HN-SPF is between
// min-hop and D-SPF").

#include <cstdio>

#include "src/analysis/equilibrium.h"
#include "src/net/builders/registry.h"

int main() {
  using namespace arpanet;
  using metrics::MetricKind;
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix = traffic::TrafficMatrix::peak_hour(
      topo.node_count(), 400e3, util::Rng{1987});
  const auto map = analysis::NetworkResponseMap::build(topo, matrix);
  const auto params = core::LineParamsTable::arpanet_defaults();
  const auto zero = util::SimTime::zero();

  const analysis::MetricMap maps[] = {
      {MetricKind::kMinHop, net::LineType::kTerrestrial56, params, zero},
      {MetricKind::kDspf, net::LineType::kTerrestrial56, params, zero},
      {MetricKind::kHnSpf, net::LineType::kTerrestrial56, params, zero},
  };

  std::printf("# Figure 10: equilibrium utilization vs min-hop offered load\n");
  std::printf("# load   min-hop    D-SPF   HN-SPF\n");
  for (double load = 0.25; load <= 4.0 + 1e-9; load += 0.25) {
    std::printf("%5.2f ", load);
    for (const analysis::MetricMap& m : maps) {
      const auto p = analysis::EquilibriumModel{map, m}.equilibrium(load);
      std::printf("  %7.3f", p.utilization);
    }
    std::printf("\n");
  }
  std::printf("\n# paper shape: HN-SPF ~= min-hop until ~50%%, then sheds but"
              " stays above D-SPF.\n");
  return 0;
}
