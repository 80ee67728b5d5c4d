// metric_tuning: tailoring the HNM parameter set to a network.
//
// "We designed the HN-SPF module so that these values would be easy to
// change, and envisioned that parameter sets would be tailored to the needs
// of individual networks" (section 4.4). This example runs the same
// overloaded network under three tunings of the 56 kb/s line-type entry:
//
//   * paper defaults      — flat to 50%, max 3 hops;
//   * early-shedding      — flat only to 25%: routes divert sooner, trading
//                           path length for queueing headroom;
//   * near-static         — flat to 90% with a low cap: the metric barely
//                           reacts, approaching min-hop behaviour.

#include <cstdio>

#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

namespace {

using namespace arpanet;

sim::ScenarioConfig base_config() {
  return sim::ScenarioConfig{}
      .with_metric(metrics::MetricKind::kHnSpf)
      .with_shape(sim::TrafficShape::kPeakHour)
      .with_load_bps(430e3)
      .with_warmup(util::SimTime::from_sec(120))
      .with_window(util::SimTime::from_sec(240))
      .with_seed(0xbeef);
}

void print_row(const sim::ScenarioResult& r) {
  const auto& ind = r.indicators;
  std::printf("  %-16s %10.1f %10.1f %9.2f %8.2f %9.3f\n", ind.label.c_str(),
              ind.internode_traffic_kbps, ind.round_trip_delay_ms,
              ind.packets_dropped_per_sec, ind.actual_path_hops,
              ind.path_ratio());
}

void run_tuning(const net::Topology& topo, const char* label,
                const core::LineTypeParams& t56) {
  sim::NetworkConfig ncfg;
  ncfg.line_params.set(net::LineType::kTerrestrial56, t56);
  print_row(sim::run_scenario(
      topo, base_config().with_network(ncfg).with_label(label)));
}

}  // namespace

int main() {
  const net::Topology topo = net::build_topology("arpanet87");
  std::printf("HNM parameter tailoring on an overloaded (430 kb/s) network\n\n");
  std::printf("  %-16s %10s %10s %9s %8s %9s\n", "tuning", "del(kbps)",
              "RTT(ms)", "drops/s", "hops", "ratio");

  run_tuning(topo, "paper-default",
             {.base_min = 30.0, .max_cost = 90.0, .flat_threshold = 0.50});
  run_tuning(topo, "early-shedding",
             {.base_min = 30.0, .max_cost = 90.0, .flat_threshold = 0.25});
  run_tuning(topo, "near-static",
             {.base_min = 30.0, .max_cost = 45.0, .flat_threshold = 0.90});

  std::printf("\nThe default is a compromise: early shedding lengthens paths"
              " to buy delay\nheadroom; the near-static tuning keeps paths"
              " short but lets hot trunks\ncongest (watch the drop column),"
              " drifting toward min-hop behaviour.\n");
  return 0;
}
