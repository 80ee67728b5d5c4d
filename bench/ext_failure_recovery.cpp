// Extension bench: routing around a trunk failure (the SPF virtue the
// paper's conclusions keep: "dynamically routing around down lines").
//
// A busy cross-country trunk fails mid-run, later recovers. For each metric
// we measure: time for every PSN's cost map to re-converge, updates the
// event cost, packets lost in the transient, and — on recovery — how
// HN-SPF's ease-in admits the trunk back gradually.

#include <cstdio>

#include "src/analysis/convergence.h"
#include "src/net/builders/registry.h"

namespace {

using namespace arpanet;

void run(metrics::MetricKind kind) {
  const net::Topology net87 = net::build_topology("arpanet87");
  sim::NetworkConfig cfg;
  cfg.metric = kind;
  sim::Network net{net87, cfg};
  net.add_traffic(traffic::TrafficMatrix::peak_hour(net87.node_count(),
                                                    380e3, util::Rng{0xdead}));
  net.run_for(util::SimTime::from_sec(150));  // settle

  // Fail DENVER-ILLINOIS: a northern cross-country trunk carrying transit.
  const net::LinkId trunk = net87.link_between(
      net87.node_by_name("DENVER"), net87.node_by_name("ILLINOIS"));

  const auto fail = analysis::measure_convergence(
      net, [&] { net.set_trunk_up(trunk, false); });
  net.run_for(util::SimTime::from_sec(100));
  const auto recover = analysis::measure_convergence(
      net, [&] { net.set_trunk_up(trunk, true); });

  std::printf("  %-7s | %9.2f %8ld %8ld | %9.2f %8ld %8ld\n", to_string(kind),
              fail.settle_time.sec(), fail.update_packets, fail.packets_dropped,
              recover.settle_time.sec(), recover.update_packets,
              recover.packets_dropped);
}

}  // namespace

int main() {
  std::printf("# Trunk failure/recovery: DENVER-ILLINOIS under 380 kb/s"
              " peak-hour load\n");
  std::printf("#         |        failure             |        recovery\n");
  std::printf("# metric  | settle(s) upd-pkts  drops  | settle(s) upd-pkts"
              "  drops\n");
  for (const metrics::MetricKind kind :
       {metrics::MetricKind::kMinHop, metrics::MetricKind::kDspf,
        metrics::MetricKind::kHnSpf}) {
    run(kind);
  }
  std::printf("\n# settle = all 47 PSNs hold identical cost maps again."
              " Every metric reroutes\n# in well under a second of flooding;"
              " the differences are in transient drops\n# and the update"
              " volume the event triggers.\n");
  return 0;
}
