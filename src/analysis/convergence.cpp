#include "src/analysis/convergence.h"

namespace arpanet::analysis {

bool costs_converged(const sim::Network& net) {
  const auto& topo = net.topology();
  const routing::LinkCosts reference = net.psn(0).spf().costs();
  for (net::NodeId n = 1; n < topo.node_count(); ++n) {
    if (net.psn(n).spf().costs() != reference) return false;
  }
  return true;
}

ConvergenceReport measure_convergence(sim::Network& net,
                                      const std::function<void()>& disturb,
                                      util::SimTime poll,
                                      util::SimTime max_wait) {
  const sim::NetworkStats before = net.stats();
  const util::SimTime start = net.now();
  disturb();

  ConvergenceReport report;
  while (net.now() - start < max_wait) {
    net.run_for(poll);
    if (costs_converged(net)) {
      report.converged = true;
      break;
    }
  }
  report.settle_time = net.now() - start;

  const sim::NetworkStats& after = net.stats();
  report.updates_originated = after.updates_originated - before.updates_originated;
  report.update_packets = after.update_packets_sent - before.update_packets_sent;
  report.packets_dropped =
      (after.packets_dropped_queue + after.packets_dropped_unreachable +
       after.packets_dropped_loop) -
      (before.packets_dropped_queue + before.packets_dropped_unreachable +
       before.packets_dropped_loop);
  return report;
}

}  // namespace arpanet::analysis
