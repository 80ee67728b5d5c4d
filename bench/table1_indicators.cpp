// Table 1: "ARPANET: Network-wide Performance Indicators".
//
// The paper compares May 1987 (D-SPF) to August 1987 (HN-SPF, after the
// HNM install) peak hours: despite 13% more traffic, round-trip delay fell
// 46%, routing updates fell 19%, and the actual/minimum path ratio dropped
// from 1.24 to 1.14. We reproduce the comparison as two simulations of the
// ARPANET-like network: D-SPF at the "May" load and HN-SPF at a 13% higher
// "August" load. Absolute numbers differ from the paper's testbed; the
// directions and rough ratios are the reproduction target.

#include <cstdio>
#include <iostream>

#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

int main() {
  using namespace arpanet;
  const net::Topology topo = net::build_topology("arpanet87");

  const sim::ScenarioConfig base = sim::ScenarioConfig{}
                                       .with_shape(sim::TrafficShape::kPeakHour)
                                       .with_warmup(util::SimTime::from_sec(150))
                                       .with_window(util::SimTime::from_sec(450))
                                       .with_seed(0x1987);

  const auto may = sim::run_scenario(
      topo, sim::ScenarioConfig{base}
                .with_metric(metrics::MetricKind::kDspf)
                .with_load_bps(366e3)  // May-87 internode traffic
                .with_label("D-SPF(May)"));
  const auto aug = sim::run_scenario(
      topo, sim::ScenarioConfig{base}
                .with_metric(metrics::MetricKind::kHnSpf)
                .with_load_bps(414e3)  // +13%, the Aug-87 level
                .with_label("HN-SPF(Aug)"));

  std::printf("# Table 1: network-wide performance indicators\n");
  stats::print_table1(std::cout, may.indicators, aug.indicators);

  const double delay_change = (aug.indicators.round_trip_delay_ms -
                               may.indicators.round_trip_delay_ms) /
                              may.indicators.round_trip_delay_ms;
  const double update_change = (aug.indicators.updates_per_trunk_sec -
                                may.indicators.updates_per_trunk_sec) /
                               may.indicators.updates_per_trunk_sec;
  std::printf("\n# round-trip delay change: %+.0f%% (paper: -46%% despite +13%%"
              " traffic)\n", 100 * delay_change);
  std::printf("# routing-update change:  %+.0f%% (paper: -19%%)\n",
              100 * update_change);
  std::printf("# path ratio: %.3f -> %.3f (paper: 1.24 -> 1.14)\n",
              may.indicators.path_ratio(), aug.indicators.path_ratio());
  return 0;
}
