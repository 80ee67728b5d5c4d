// arpanet_study: the before/after measurement study, as a program.
//
// Runs the ARPANET-like network at the same peak-hour offered load under
// all three metrics — as one parallel sweep over the metric axis — and
// prints the Table-1-style indicators side by side, plus a utilization
// histogram across trunks: the "some links over-utilized while others sit
// idle" signature of D-SPF (section 3.3 point 1) shows up as mass in both
// tails.

#include <cstdio>
#include <iostream>
#include <vector>

#include "src/exp/sweep.h"
#include "src/net/builders/registry.h"
#include "src/sim/network.h"
#include "src/stats/histogram.h"

namespace {

using namespace arpanet;

void utilization_histogram(metrics::MetricKind kind, double offered) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::NetworkConfig cfg;
  cfg.metric = kind;
  sim::Network net{net87, cfg};
  net.add_traffic(traffic::TrafficMatrix::peak_hour(net87.node_count(),
                                                    offered, util::Rng{0xfeed}));
  net.run_for(util::SimTime::from_sec(300));

  // Utilization of every simplex link over the last bucket.
  stats::Histogram hist{0.0, 1.0, 10};
  const std::size_t bucket =
      static_cast<std::size_t>(net.now().us() /
                               sim::Network::kStatsBucket.us()) -
      2;
  for (const net::Link& l : net87.links()) {
    hist.add(net.link_utilization(l.id, bucket));
  }
  std::printf("  %-7s |", to_string(kind));
  for (std::size_t i = 0; i < 10; ++i) {
    std::printf(" %4lld", static_cast<long long>(hist.bins()[i]));
  }
  std::printf("   (links per 10%% utilization bin)\n");
}

}  // namespace

int main() {
  const net::Topology net87 = net::build_topology("arpanet87");
  const double offered = 400e3;

  std::printf("ARPANET-like network, %d PSNs / %d trunks, %.0f kb/s peak-hour"
              " offered load\n\n",
              static_cast<int>(net87.node_count()),
              static_cast<int>(net87.trunk_count()), offered / 1e3);

  // The three metrics are independent cells: sweep them in parallel.
  exp::SweepSpec spec;
  spec.base = sim::ScenarioConfig{}
                  .with_load_bps(offered)
                  .with_warmup(util::SimTime::from_sec(120))
                  .with_window(util::SimTime::from_sec(300));
  spec.over_metrics({metrics::MetricKind::kMinHop, metrics::MetricKind::kDspf,
                     metrics::MetricKind::kHnSpf});
  const exp::SweepResult sweep = exp::run_sweep(spec, net87, "arpanet87");

  std::vector<stats::NetworkIndicators> results;
  for (const exp::SweepRun& run : sweep.runs) {
    results.push_back(run.result.indicators);
  }

  std::printf("%-28s %12s %12s %12s\n", "Indicator", "min-hop", "D-SPF",
              "HN-SPF");
  const auto row = [&](const char* name, auto getter) {
    std::printf("%-28s %12.2f %12.2f %12.2f\n", name, getter(results[0]),
                getter(results[1]), getter(results[2]));
  };
  row("delivered traffic (kbps)",
      [](const auto& r) { return r.internode_traffic_kbps; });
  row("round-trip delay (ms)",
      [](const auto& r) { return r.round_trip_delay_ms; });
  row("drops per second",
      [](const auto& r) { return r.packets_dropped_per_sec; });
  row("actual path (hops)", [](const auto& r) { return r.actual_path_hops; });
  row("path ratio", [](const auto& r) { return r.path_ratio(); });
  row("updates per trunk/sec",
      [](const auto& r) { return r.updates_per_trunk_sec; });

  std::printf("\nTrunk utilization spread (snapshot):\n");
  for (const metrics::MetricKind kind :
       {metrics::MetricKind::kMinHop, metrics::MetricKind::kDspf,
        metrics::MetricKind::kHnSpf}) {
    utilization_histogram(kind, offered);
  }
  std::printf("\nReading: HN-SPF delivers the most traffic at the lowest"
              " delay with the\nfewest drops; its utilization histogram has"
              " the least mass in the extremes.\n");
  return 0;
}
