// Figure 9: "Equilibrium Calculation" — the two families of curves whose
// intersections define equilibrium routing: Metric maps (utilization ->
// normalized cost, plotted inverse here: for each cost, the utilization the
// metric implies) and Network Response maps at several offered loads, plus
// the equilibrium points the numerical solver finds for each metric/load.

#include <cstdio>

#include "src/analysis/equilibrium.h"
#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

int main() {
  using namespace arpanet;
  using metrics::MetricKind;
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix =
      sim::scenario_matrix(topo, sim::ScenarioConfig{}
                                     .with_shape(sim::TrafficShape::kPeakHour)
                                     .with_load_bps(400e3)
                                     .with_seed(1987));
  const auto map = analysis::NetworkResponseMap::build(topo, matrix);
  const auto params = core::LineParamsTable::arpanet_defaults();

  const analysis::MetricMap hn{MetricKind::kHnSpf, net::LineType::kTerrestrial56,
                               params, util::SimTime::zero()};
  const analysis::MetricMap dspf{MetricKind::kDspf, net::LineType::kTerrestrial56,
                                 params, util::SimTime::zero()};

  std::printf("# Figure 9: metric maps (cost in hops vs utilization)\n");
  std::printf("# util   HN-SPF   D-SPF\n");
  for (int i = 0; i <= 20; ++i) {
    const double u = static_cast<double>(i) / 20.0;
    std::printf("%5.2f  %7.2f %7.2f\n", u, hn.normalized_cost(u),
                dspf.normalized_cost(u));
  }

  std::printf("\n# network response maps: utilization on the average link vs"
              " reported cost,\n# for offered loads (min-hop utilization)"
              " 50%% / 75%% / 100%% / 150%%\n");
  std::printf("# cost    u@50%%   u@75%%  u@100%%  u@150%%\n");
  const analysis::EquilibriumModel model_hn{map, hn};
  for (double c = 1.0; c <= 3.5 + 1e-9; c += 0.25) {
    std::printf("%5.2f  %7.3f %7.3f %7.3f %7.3f\n", c,
                model_hn.utilization_at(c, 0.5), model_hn.utilization_at(c, 0.75),
                model_hn.utilization_at(c, 1.0), model_hn.utilization_at(c, 1.5));
  }

  std::printf("\n# equilibrium points (cost, utilization):\n");
  std::printf("# load    HN-SPF              D-SPF\n");
  for (const double load : {0.5, 0.75, 1.0, 1.5, 2.0}) {
    const auto ph = analysis::EquilibriumModel{map, hn}.equilibrium(load);
    const auto pd = analysis::EquilibriumModel{map, dspf}.equilibrium(load);
    std::printf("%5.2f   (%.2f, %.3f)      (%.2f, %.3f)\n", load, ph.cost_hops,
                ph.utilization, pd.cost_hops, pd.utilization);
  }
  std::printf("# paper shape: at a given overload the HN-SPF equilibrium sits"
              " at higher\n# utilization (and bounded cost <= 3) than D-SPF's.\n");
  return 0;
}
