// Extension bench (paper section 4.5): single-path HN-SPF vs equal-cost
// multipath when traffic is dominated by large flows.
//
// "HN-SPF ... will be most effective when network traffic consists of
// several small node-to-node flows. To accomplish load-sharing when network
// traffic is dominated by several large flows would require a multi-path
// routing algorithm." We sweep the share of traffic concentrated into a few
// elephant flows and compare delivered throughput and drops.

#include <cstdio>

#include "src/net/builders/registry.h"
#include "src/sim/network.h"

namespace {

using namespace arpanet;

traffic::TrafficMatrix elephant_matrix(const net::Topology& topo, double total,
                                       double elephant_share) {
  // Background: uniform small flows. Elephants: three coast-to-coast pairs.
  auto m = traffic::TrafficMatrix::uniform(topo.node_count(),
                                           total * (1.0 - elephant_share));
  const std::pair<const char*, const char*> pairs[] = {
      {"MIT", "UCLA"}, {"BBN", "SRI"}, {"PENTAGON", "AMES"}};
  for (const auto& [a, b] : pairs) {
    m.add(topo.node_by_name(a), topo.node_by_name(b),
          total * elephant_share / 3.0);
  }
  return m;
}

void run(double elephant_share, bool multipath) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  cfg.multipath = multipath;
  sim::Network net{net87, cfg};
  net.add_traffic(elephant_matrix(net87, 420e3, elephant_share));
  net.run_for(util::SimTime::from_sec(120));
  net.reset_stats();
  net.run_for(util::SimTime::from_sec(240));
  const auto ind = net.indicators("x");
  std::printf("  %6.0f%%   %-10s %10.1f %10.1f %10.2f %8.2f\n",
              100 * elephant_share, multipath ? "multipath" : "single",
              ind.internode_traffic_kbps, ind.round_trip_delay_ms,
              ind.packets_dropped_per_sec, ind.actual_path_hops);
}

}  // namespace

int main() {
  std::printf("# Section 4.5 extension: elephant flows, single-path vs"
              " equal-cost multipath\n");
  std::printf("# elephant  routing    del(kbps)    RTT(ms)    drops/s    hops\n");
  for (const double share : {0.0, 0.3, 0.6}) {
    run(share, false);
    run(share, true);
  }
  std::printf("\n# expected: with elephants dominating, single-path HN-SPF"
              " pins whole flows to\n# one trunk (drops rise); multipath"
              " spreads them over equal-cost paths.\n");
  return 0;
}
