// Figure 13: "ARPANET: Dropped Packets (1987)" — packets dropped due to
// congestion per weekday, before and after the HNM installation, with
// traffic levels rising throughout.
//
// We compress each "day" into a fixed simulated peak-hour window. Days 1-7
// run D-SPF, the HNM is "installed" before day 8, and offered load climbs
// steadily across all 14 days — reproducing the paper's shape: a sharp drop
// in congestion losses at the install despite ever-increasing traffic.

#include <cstdio>

#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

int main() {
  using namespace arpanet;
  const net::Topology topo = net::build_topology("arpanet87");

  const int days = 14;
  const int install_day = 8;  // HNM installed before this day
  const double load0 = 380e3;
  const double load_growth = 6e3;  // per day: ever-increasing traffic

  std::printf("# Figure 13: dropped packets per simulated weekday\n");
  std::printf("# day  metric   offered(kbps)  dropped  delivered  drop-rate\n");
  long before_total = 0;
  long after_total = 0;
  for (int day = 1; day <= days; ++day) {
    sim::NetworkConfig ncfg;
    ncfg.queue_capacity = 30;
    const sim::ScenarioConfig cfg =
        sim::ScenarioConfig{}
            .with_metric(day < install_day ? metrics::MetricKind::kDspf
                                           : metrics::MetricKind::kHnSpf)
            .with_shape(sim::TrafficShape::kPeakHour)
            .with_load_bps(load0 + load_growth * (day - 1))
            .with_warmup(util::SimTime::from_sec(80))
            .with_window(util::SimTime::from_sec(200))
            .with_seed(0x1987'0500ULL + static_cast<std::uint64_t>(day))
            .with_network(ncfg)
            .with_label("day");

    const auto r = sim::run_scenario(topo, cfg);
    const long dropped = r.stats.packets_dropped_queue;
    (day < install_day ? before_total : after_total) += dropped;
    const double rate =
        static_cast<double>(dropped) /
        static_cast<double>(std::max<long>(r.stats.packets_generated, 1));
    std::printf("%5d  %-7s %14.0f %8ld %10ld %10.4f%s\n", day,
                to_string(cfg.metric), cfg.offered_load_bps / 1e3, dropped,
                r.stats.packets_delivered, rate,
                day == install_day ? "   <- HNM installed" : "");
  }
  std::printf("\n# total drops: before install %ld, after %ld (paper: sharp"
              " drop at install\n# despite rising traffic)\n",
              before_total, after_total);
  return 0;
}
