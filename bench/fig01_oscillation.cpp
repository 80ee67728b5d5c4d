// Figure 1 / Section 3.3: "Routing Oscillations".
//
// Two regions joined by equal trunks A and B; inter-region traffic exceeds
// one trunk's capacity. Under D-SPF "links A and B alternating (instead of
// cooperating) as traffic carriers" shows up as anti-phase utilization
// swings; under HN-SPF the movement limits shed routes gradually and the
// trunks settle into sharing. The bench prints both runs' A/B utilization
// per 10 s measurement bucket, then summary statistics.

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/net/builders/registry.h"
#include "src/obs/trace_sink.h"
#include "src/sim/network.h"

namespace {

using namespace arpanet;

struct RunResult {
  std::vector<double> util_a;
  std::vector<double> util_b;
  std::vector<double> cost_a;  ///< reported costs of trunk A in the window
  double mean_imbalance = 0.0;  // mean |uA - uB| over the window
  double swing_a = 0.0;         // mean |uA(t+1) - uA(t)|: oscillation speed
  double drops_per_sec = 0.0;
  double delay_ms = 0.0;
};

RunResult run(metrics::MetricKind kind, const net::Topology& two,
              double inter_region_bps, int buckets) {
  sim::NetworkConfig cfg;
  cfg.metric = kind;
  sim::Network net{two, cfg};
  obs::RecordingTraceSink trace{two.link_count()};
  net.attach_trace_sink(&trace);

  // Inter-region pairs only: the intra-region mesh is irrelevant here.
  // Region 1 is A0..A{k-1} (ids 0..k-1), region 2 is B0..B{k-1}.
  const auto k = static_cast<net::NodeId>(two.node_count() / 2);
  const net::LinkId link_a =
      two.link_between(two.node_by_name("A0"), two.node_by_name("B0"));
  const std::string half = std::to_string(k / 2);
  const net::LinkId link_b = two.link_between(two.node_by_name("A" + half),
                                              two.node_by_name("B" + half));
  traffic::TrafficMatrix m{two.node_count()};
  const double per_pair = inter_region_bps / static_cast<double>(2 * k * k);
  for (net::NodeId a = 0; a < k; ++a) {
    for (net::NodeId b = k; b < 2 * k; ++b) {
      m.set(a, b, per_pair);
      m.set(b, a, per_pair);
    }
  }
  net.add_traffic(m);

  const auto warmup = util::SimTime::from_sec(200);
  net.run_for(warmup);
  net.reset_stats();
  net.run_for(sim::Network::kStatsBucket * buckets);

  RunResult r;
  const std::size_t first =
      static_cast<std::size_t>(warmup.us() / sim::Network::kStatsBucket.us());
  for (int i = 0; i < buckets; ++i) {
    const double ua = net.link_utilization(link_a, first + i);
    const double ub = net.link_utilization(link_b, first + i);
    r.util_a.push_back(ua);
    r.util_b.push_back(ub);
    r.mean_imbalance += std::abs(ua - ub) / buckets;
  }
  for (std::size_t i = 1; i < r.util_a.size(); ++i) {
    r.swing_a += std::abs(r.util_a[i] - r.util_a[i - 1]) /
                 static_cast<double>(r.util_a.size() - 1);
  }
  const auto ind = net.indicators("x");
  r.drops_per_sec = ind.packets_dropped_per_sec;
  r.delay_ms = ind.round_trip_delay_ms;
  for (const auto& [when, cost] : trace.costs(link_a)) {
    if (when >= warmup) r.cost_a.push_back(cost);
  }
  return r;
}

}  // namespace

int main() {
  const net::Topology two = net::build_topology("two-region:per_region=6");
  const double offered = 95e3;  // ~1.7x one 56 kb/s trunk: one trunk alone cannot carry it
  const int buckets = 30;

  const RunResult dspf = run(metrics::MetricKind::kDspf, two, offered, buckets);
  const RunResult hn = run(metrics::MetricKind::kHnSpf, two, offered, buckets);

  std::printf("# Figure 1: two-region oscillation, %.0f kb/s inter-region\n",
              offered / 1e3);
  std::printf("# t(s)   D-SPF:A  D-SPF:B   HN-SPF:A HN-SPF:B   (utilization)\n");
  for (int i = 0; i < buckets; ++i) {
    std::printf("%5d     %6.2f   %6.2f     %6.2f   %6.2f\n", i * 10,
                dspf.util_a[i], dspf.util_b[i], hn.util_a[i], hn.util_b[i]);
  }
  std::printf("\n#            mean|uA-uB|  mean step|duA|  drops/s  RTT(ms)\n");
  std::printf("# D-SPF   %10.3f %14.3f %9.2f %8.1f\n", dspf.mean_imbalance,
              dspf.swing_a, dspf.drops_per_sec, dspf.delay_ms);
  std::printf("# HN-SPF  %10.3f %14.3f %9.2f %8.1f\n", hn.mean_imbalance,
              hn.swing_a, hn.drops_per_sec, hn.delay_ms);
  std::printf("# paper shape: D-SPF alternates A/B (high imbalance & swing);\n");
  std::printf("# HN-SPF shares the trunks (low imbalance, steady).\n");

  std::printf("\n# trunk A reported costs over the window (units):\n# D-SPF: ");
  for (std::size_t i = 0; i < dspf.cost_a.size() && i < 14; ++i) {
    std::printf(" %.0f", dspf.cost_a[i]);
  }
  std::printf("\n# HN-SPF:");
  for (std::size_t i = 0; i < hn.cost_a.size() && i < 14; ++i) {
    std::printf(" %.0f", hn.cost_a[i]);
  }
  std::printf("\n# (with the corridor shared, each trunk sits near 45%%"
              " utilization — below the\n# 50%% flat threshold — so HN-SPF"
              " holds a constant one-hop cost and the system\n# stays put;"
              " D-SPF keeps reporting its fluctuating delay, 2-4x swings"
              " between\n# updates, and the stampedes continue.)\n");
  return 0;
}
