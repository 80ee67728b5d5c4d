// Appendix: offered-load sweep in the full simulator — the classic
// delay/throughput knee, per metric.
//
// Figure 10 derives equilibrium utilization from the analytical model; this
// bench is its discrete-event cross-check, and quantifies the paper's §7
// claim that the HNM "raised the effective capacity of the network by an
// estimated 25%": the offered load at which delay explodes or deliveries
// saturate moves right under HN-SPF.
//
// The 15 cells (3 metrics x 5 loads) run through exp::run_sweep, one worker
// per core; results are bit-identical at any thread count. Progress and the
// sweep's wall-time summary go to stderr, so stdout is deterministic.

#include <cstdio>
#include <iostream>

#include "src/exp/sweep.h"
#include "src/net/builders/registry.h"

int main() {
  using namespace arpanet;
  using metrics::MetricKind;

  const net::Topology net87 = net::build_topology("arpanet87");

  exp::SweepSpec spec;
  spec.base = sim::ScenarioConfig{}
                  .with_shape(sim::TrafficShape::kPeakHour)
                  .with_warmup(util::SimTime::from_sec(120))
                  .with_window(util::SimTime::from_sec(240));
  spec.over_metrics({MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf})
      .over_load_range_bps(250e3, 550e3, 75e3);

  exp::SweepOptions opts;  // threads = 0: one worker per core
  opts.on_run_done = [](const exp::SweepRun& r) {
    std::fprintf(stderr, "done: %s @ %.0f kb/s (%.1fs, %.0f events/s)\n",
                 to_string(r.cell.metric), r.cell.offered_load_bps / 1e3,
                 r.result.wall_seconds, r.result.events_per_sec());
  };
  const exp::SweepResult result =
      exp::run_sweep(spec, net87, "arpanet87", opts);

  std::printf("# Offered-load sweep, ARPANET-like topology, peak-hour"
              " matrix\n\n");
  // Cells enumerate metric-major, so each metric's loads are contiguous.
  MetricKind current{};
  bool first = true;
  for (const exp::SweepRun& run : result.runs) {
    if (first || run.cell.metric != current) {
      if (!first) std::printf("\n");
      current = run.cell.metric;
      first = false;
      std::printf("# %s\n", to_string(current));
      std::printf("# offered(kbps)  delivered  RTT(ms)  p95(ms)  drops/s"
                  "  hops\n");
    }
    const auto& ind = run.result.indicators;
    std::printf("  %12.0f %10.1f %8.0f %8.0f %8.2f %6.2f\n",
                run.cell.offered_load_bps / 1e3, ind.internode_traffic_kbps,
                ind.round_trip_delay_ms, ind.delay_p95_ms,
                ind.packets_dropped_per_sec, ind.actual_path_hops);
  }
  std::printf("\n# reading: find each metric's knee (delivered stops tracking"
              " offered / RTT\n# explodes); the HN-SPF knee sits well to the"
              " right of D-SPF's — the paper's\n# 'effective capacity'"
              " improvement, measured end to end.\n\n");
  result.write_summary(std::cerr);
  return 0;
}
