// debugging_trace: following a single packet through the network.
//
// Demonstrates the observability surface: the PacketTracer (per-packet
// event log), the per-link utilization series, and Graphviz export with a
// live-cost labeler — the toolkit for answering "why did my packet take
// THAT path?".

#include <cstdio>
#include <string>

#include "src/net/builders/registry.h"
#include "src/net/dot_export.h"
#include "src/sim/network.h"

int main() {
  using namespace arpanet;
  const net::Topology net87 = net::build_topology("arpanet87");
  const net::NodeId mit = net87.node_by_name("MIT");
  const net::NodeId ucla = net87.node_by_name("UCLA");
  sim::NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  sim::Network net{net87, cfg};

  sim::PacketTracer tracer{1 << 20};
  net.attach_tracer(&tracer);

  traffic::TrafficMatrix m{net87.node_count()};
  m.set(mit, ucla, 8e3);  // coast to coast
  net.add_traffic(m);
  net.run_for(util::SimTime::from_sec(60));

  // Pick the last delivered packet and print its life.
  std::uint64_t packet = 0;
  for (const sim::TraceEvent& e : tracer.events()) {
    if (e.kind == sim::TraceEventKind::kDelivered && e.node == ucla) {
      packet = e.packet_id;
    }
  }
  std::printf("life of packet %llu (MIT -> UCLA):\n",
              static_cast<unsigned long long>(packet));
  for (const sim::TraceEvent& e : tracer.events_for(packet)) {
    std::printf("  %10.3f ms  %-20s at %-12s", e.at.ms(),
                to_string(e.kind),
                std::string(net87.node_name(e.node)).c_str());
    if (e.link != net::kInvalidLink) {
      const net::Link& l = net87.link(e.link);
      std::printf(" link %s->%s",
                  std::string(net87.node_name(l.from)).c_str(),
                  std::string(net87.node_name(l.to)).c_str());
    }
    std::printf("\n");
  }

  // Emit a cost-annotated Graphviz map of the network as MIT sees it.
  const routing::LinkCosts mit_costs = net.psn(mit).spf().costs();
  const std::string dot = net::to_dot(net87, [&](const net::Link& l) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.0f", mit_costs[l.id]);
    return std::string(buf);
  });
  std::printf("\nGraphviz map (first lines; pipe the full output of"
              " `metric_explorer\n--dot-topology=arpanet87` through dot"
              " -Tsvg for the picture):\n");
  std::printf("%s...\n", dot.substr(0, 220).c_str());
  return 0;
}
