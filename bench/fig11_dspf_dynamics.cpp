// Figure 11: "Dynamic Behavior of D-SPF" — unbounded oscillations.
//
// At 100% offered load the D-SPF iteration is meta-stable: started at the
// equilibrium it stays; started away from it, it diverges and then
// "oscillate[s] between its maximum and minimum values". The bench prints
// both trajectories and their tail amplitudes.

#include <cstdio>

#include "src/analysis/dynamic_trace.h"
#include "src/net/builders/registry.h"

int main() {
  using namespace arpanet;
  using metrics::MetricKind;
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix = traffic::TrafficMatrix::peak_hour(
      topo.node_count(), 400e3, util::Rng{1987});
  const auto map = analysis::NetworkResponseMap::build(topo, matrix);
  const auto params = core::LineParamsTable::arpanet_defaults();
  const analysis::MetricMap dspf{MetricKind::kDspf, net::LineType::kTerrestrial56,
                                 params, util::SimTime::zero()};

  const double load = 1.0;
  const auto eq = analysis::EquilibriumModel{map, dspf}.equilibrium(load);
  std::printf("# Figure 11: D-SPF dynamics at 100%% offered load\n");
  std::printf("# equilibrium (meta-stable): cost %.3f hops, utilization %.3f\n\n",
              eq.cost_hops, eq.utilization);

  const auto near = analysis::trace_dspf(map, dspf, load, eq.cost_hops, 24);
  const auto far = analysis::trace_dspf(map, dspf, load, 1.0, 24);

  std::printf("# step   from-equilibrium        from-cost-1 (far start)\n");
  std::printf("#        cost     util           cost     util\n");
  for (std::size_t i = 0; i < near.size(); ++i) {
    std::printf("%5zu  %7.2f  %6.3f        %7.2f  %6.3f\n", i,
                near[i].cost_hops, near[i].utilization, far[i].cost_hops,
                far[i].utilization);
  }
  std::printf("\n# tail amplitude: near-start %.2f hops, far-start %.2f hops\n",
              analysis::tail_amplitude(near), analysis::tail_amplitude(far));
  std::printf("# paper shape: far start swings between the extremes (idle cost"
              " <-> max);\n# the equilibrium is meta-stable.\n");
  return 0;
}
