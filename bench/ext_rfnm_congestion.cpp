// Extension bench: open-loop vs RFNM closed-loop load under overload.
//
// Section 3.3 blames D-SPF oscillation for "the spread of congestion within
// the network"; what actually bounded ARPANET congestion was the host
// layer's RFNM windowing, which throttles sources when the subnet slows
// down. This bench sweeps offered load across the two-region corridor and
// compares raw Poisson datagrams against RFNM messages (window 1 and 8):
// the closed loop converts queue drops into source-side waiting.

#include <cstdio>

#include "src/net/builders/registry.h"
#include "src/sim/host_flow.h"

namespace {

using namespace arpanet;

/// Every region1<->region2 pair of a two-region net: region 1 is
/// A0..A{k-1} (ids 0..k-1), region 2 is B0..B{k-1} (ids k..2k-1).
traffic::TrafficMatrix corridor(const net::Topology& two, double bps) {
  const auto k = static_cast<net::NodeId>(two.node_count() / 2);
  traffic::TrafficMatrix m{two.node_count()};
  const double per_pair = bps / static_cast<double>(2 * k * k);
  for (net::NodeId a = 0; a < k; ++a) {
    for (net::NodeId b = k; b < 2 * k; ++b) {
      m.set(a, b, per_pair);
      m.set(b, a, per_pair);
    }
  }
  return m;
}

void run(double offered_bps) {
  const net::Topology two = net::build_topology("two-region:per_region=6");

  // Open loop.
  sim::NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  sim::Network open_net{two, cfg};
  open_net.add_traffic(corridor(two, offered_bps));
  open_net.run_for(util::SimTime::from_sec(300));
  const auto open_ind = open_net.indicators("open");

  // Closed loop, two window sizes.
  double goodput[2];
  double delay[2];
  long drops[2];
  const int windows[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    sim::Network closed_net{two, cfg};
    sim::HostFlowConfig hcfg;
    hcfg.window = windows[i];
    sim::HostFlowLayer host{closed_net, hcfg};
    host.add_traffic(corridor(two, offered_bps));
    closed_net.run_for(util::SimTime::from_sec(300));
    goodput[i] = host.goodput_bps() / 1e3;
    delay[i] = host.message_delay_ms().mean();
    drops[i] = closed_net.stats().packets_dropped_queue;
  }

  std::printf("  %7.0f | %9.1f %8.2f | %8.1f %9.0f %7ld | %8.1f %9.0f %7ld\n",
              offered_bps / 1e3, open_ind.internode_traffic_kbps,
              open_ind.packets_dropped_per_sec, goodput[0], delay[0], drops[0],
              goodput[1], delay[1], drops[1]);
}

}  // namespace

int main() {
  std::printf("# Open-loop datagrams vs RFNM flow control, two-region corridor"
              " (2x56 kb/s)\n");
  std::printf("#         |     open loop      |        window 1          |"
              "        window 8\n");
  std::printf("# offered | del(kbps) drops/s  | good(kbps) msg-ms  drops |"
              " good(kbps) msg-ms  drops\n");
  for (const double offered : {60e3, 90e3, 120e3, 180e3}) {
    run(offered);
  }
  std::printf("\n# reading: past capacity the open loop sheds by dropping."
              " Window 1 throttles\n# hard: drops stay near zero and overload"
              " shows up as message latency at the\n# edge. Window 8 trades"
              " protection back for throughput — its 8-message bursts\n#"
              " overrun queues under deep overload, drifting toward open-loop"
              " behaviour.\n");
  return 0;
}
