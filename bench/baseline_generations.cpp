// Three generations of ARPANET routing, end to end (paper section 2).
//
// The same two-region overload scenario run under:
//   1969: distributed Bellman-Ford, instantaneous queue-length metric
//         (RoutingAlgorithm::kDistanceVector) — transient loops, heavy
//         table-exchange overhead;
//   1979: SPF + the 10 s averaged delay metric (D-SPF) — loop-free but
//         oscillating under load;
//   1987: SPF + the revised hop-normalized metric (HN-SPF).
//
// Not a figure from the paper itself, but the quantitative version of its
// historical narrative ("the performance of D-SPF was far superior to that
// of the Bellman-Ford algorithm", section 3.3).

#include <cstdio>

#include "src/exp/experiment.h"

namespace {

using namespace arpanet;

struct Row {
  const char* label;
  routing::RoutingAlgorithm algo;
  metrics::MetricKind metric;
};

void run(const Row& row, const exp::Experiment& e,
         const traffic::TrafficMatrix& m) {
  sim::NetworkConfig ncfg;
  ncfg.algorithm = row.algo;
  ncfg.hop_limit = 64;
  const auto r = e.run(sim::ScenarioConfig{}
                           .with_metric(row.metric)
                           .with_network(ncfg)
                           .with_matrix(m)
                           .with_warmup(util::SimTime::from_sec(150))
                           .with_window(util::SimTime::from_sec(300))
                           .with_label(row.label));
  std::printf("%-22s %10.1f %10.1f %8.2f %8ld %8ld %12ld\n", row.label,
              r.indicators.internode_traffic_kbps,
              r.indicators.round_trip_delay_ms, r.indicators.actual_path_hops,
              r.stats.packets_dropped_queue, r.stats.packets_dropped_loop,
              r.stats.update_packets_sent);
}

}  // namespace

int main() {
  const exp::Experiment e = exp::Experiment::two_region(6);

  // All region1<->region2 pairs share 95 kb/s across the two 56 kb/s trunks.
  // Region 1 is A0..A5 (ids 0..5), region 2 is B0..B5 (ids 6..11).
  const net::NodeId k = 6;
  traffic::TrafficMatrix m{2 * k};
  const double per_pair = 95e3 / static_cast<double>(2 * k * k);
  for (net::NodeId a = 0; a < k; ++a) {
    for (net::NodeId b = k; b < 2 * k; ++b) {
      m.set(a, b, per_pair);
      m.set(b, a, per_pair);
    }
  }

  std::printf("# Three routing generations, two-region overload (95 kb/s over"
              " 2x56 kb/s trunks)\n");
  std::printf("%-22s %10s %10s %8s %8s %8s %12s\n", "# generation", "kbps",
              "RTT(ms)", "hops", "q-drops", "loops", "ctrl-pkts");
  const Row rows[] = {
      {"1969 Bellman-Ford", routing::RoutingAlgorithm::kDistanceVector,
       metrics::MetricKind::kDspf},
      {"1979 D-SPF", routing::RoutingAlgorithm::kSpf, metrics::MetricKind::kDspf},
      {"1987 HN-SPF", routing::RoutingAlgorithm::kSpf, metrics::MetricKind::kHnSpf},
  };
  for (const Row& r : rows) run(r, e, m);
  std::printf("\n# expected ordering: each generation delivers more at lower"
              " delay with less\n# control overhead pathology than the last.\n");
  return 0;
}
