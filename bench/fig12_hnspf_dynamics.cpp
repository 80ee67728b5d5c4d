// Figure 12: "Dynamic Behavior of HN-SPF" — bounded oscillation and the
// ease-in of a new link.
//
// Same 100% offered load as figure 11, but iterating the full HNM
// (averaging filter + movement limits + clip). Two trajectories:
//   * from the idle floor — converges toward equilibrium, any residual
//     oscillation bounded by the half-hop movement limits;
//   * from link-up (max cost) — "Easing in a new link": the cost is pulled
//     down at most half a hop per period, drawing in traffic gradually.

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
  const auto type = net::LineType::kTerrestrial56;
  const analysis::MetricMap hn{MetricKind::kHnSpf, type, params,
                               util::SimTime::zero()};

  const double load = 1.0;
  const auto eq = analysis::EquilibriumModel{map, hn}.equilibrium(load);
  std::printf("# Figure 12: HN-SPF dynamics at 100%% offered load\n");
  std::printf("# equilibrium: cost %.3f hops, utilization %.3f\n\n", eq.cost_hops,
              eq.utilization);

  const auto from_idle = analysis::trace_hnspf(map, params.for_type(type), type,
                                               load, 30, /*start_at_max=*/false);
  const auto ease_in = analysis::trace_hnspf(map, params.for_type(type), type,
                                             load, 30, /*start_at_max=*/true);

  std::printf("# step   from-idle-floor         easing-in-a-new-link\n");
  std::printf("#        cost     util           cost     util\n");
  for (std::size_t i = 0; i < from_idle.size(); ++i) {
    std::printf("%5zu  %7.2f  %6.3f        %7.2f  %6.3f\n", i,
                from_idle[i].cost_hops, from_idle[i].utilization,
                ease_in[i].cost_hops, ease_in[i].utilization);
  }
  std::printf("\n# tail amplitude: from-idle %.2f hops, ease-in %.2f hops"
              " (bounded ~ a half-hop\n# by the movement limits — compare"
              " figure 11's unbounded D-SPF swings)\n",
              analysis::tail_amplitude(from_idle),
              analysis::tail_amplitude(ease_in));
  return 0;
}
