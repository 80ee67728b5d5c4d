// arpanet_sim: command-line driver for whole-network experiments.
//
// Usage:
//   arpanet_sim [--topology=<spec>|ring:N|grid:WxH|<file>]
//               [--metric=min-hop|dspf|hnspf] [--algorithm=spf|dv]
//               [--multipath] [--load-kbps=400] [--shape=uniform|peak-hour]
//               [--warmup-sec=120] [--window-sec=300] [--seed=N]
//               [--queue-capacity=40]
//               [--fail-trunk=A-B@T] [--recover-trunk=A-B@T]
//               [--utilization] [--write-topology]
//
// Each run is one single-threaded simulation; output is reproducible for a
// fixed seed. --fail-trunk / --recover-trunk take the named trunk down / up
// at T seconds of simulated time (counted from t=0, warm-up included); T
// must lie within the run, [0, warm-up + window].
//
// A <spec> is any TopologyBuilder registry family with key=value parameters,
// e.g. arpanet87, two-region, ba:nodes=10000,seed=7,m=2 or
// leo-grid:planes=20,per_plane=20 (see docs/topologies.md for the families
// and their parameters). ring:N and grid:WxH are short for ring:nodes=N and
// grid:width=W,height=H.
//
// Examples:
//   arpanet_sim --metric=dspf --load-kbps=420
//   arpanet_sim --topology=my_net.topo --metric=hnspf --fail-trunk=MIT-BBN@200
//   arpanet_sim --topology=ring:8 --write-topology
//   arpanet_sim --topology=waxman:nodes=256,seed=3 --metric=hnspf

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "src/net/builders/registry.h"
#include "src/net/topology_io.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"
#include "src/util/flags.h"

namespace {

using namespace arpanet;

/// The registry spelling of a --topology value: "ring:N" and "grid:WxH"
/// are short forms of "ring:nodes=N" and "grid:width=W,height=H"; every
/// other value passes through unchanged.
std::string registry_spec(const std::string& spec) {
  const std::string args = spec.substr(spec.find(':') + 1);
  if (args.find('=') != std::string::npos) return spec;
  if (spec.starts_with("ring:")) return "ring:nodes=" + args;
  if (spec.starts_with("grid:")) {
    const std::size_t x = args.find('x');
    if (x == std::string::npos) {
      throw std::invalid_argument("grid spec must be grid:WxH");
    }
    return "grid:width=" + args.substr(0, x) + ",height=" + args.substr(x + 1);
  }
  return spec;
}

/// A registry family spec ("family[:key=value,...]") or a topology file.
net::Topology load_topology(const std::string& spec) {
  const std::string family = spec.substr(0, spec.find(':'));
  if (net::TopologyBuilder::registry().has_family(family)) {
    return net::build_topology(registry_spec(spec));
  }
  std::ifstream file{spec};
  if (!file) throw std::invalid_argument("cannot open topology file " + spec);
  return net::parse_topology(file);
}

metrics::MetricKind parse_metric(const std::string& name) {
  if (name == "min-hop") return metrics::MetricKind::kMinHop;
  if (name == "dspf") return metrics::MetricKind::kDspf;
  if (name == "hnspf") return metrics::MetricKind::kHnSpf;
  throw std::invalid_argument("unknown metric " + name +
                              " (min-hop|dspf|hnspf)");
}

routing::RoutingAlgorithm parse_algorithm(const std::string& name) {
  if (name == "spf") return routing::RoutingAlgorithm::kSpf;
  if (name == "dv") return routing::RoutingAlgorithm::kDistanceVector;
  throw std::invalid_argument("unknown algorithm " + name + " (spf|dv)");
}

sim::TrafficShape parse_shape(const std::string& name) {
  if (name == "uniform") return sim::TrafficShape::kUniform;
  if (name == "peak-hour") return sim::TrafficShape::kPeakHour;
  throw std::invalid_argument("unknown shape " + name + " (uniform|peak-hour)");
}

struct TrunkEvent {
  net::LinkId link;
  util::SimTime at;
  bool up;
};

/// Parses "A-B@T" against the topology's node names. Names may contain dashes
/// (leo-p0-s1), so A and B are split at the one dash where both halves name
/// nodes. T must lie within the run, [0, run_end].
TrunkEvent parse_trunk_event(const net::Topology& topo, const std::string& flag,
                             const std::string& spec, bool up,
                             util::SimTime run_end) {
  const std::size_t at_pos = spec.rfind('@');
  if (at_pos == std::string::npos) {
    throw std::invalid_argument("--" + flag + "=" + spec +
                                ": must look like A-B@seconds");
  }
  const std::string ends = spec.substr(0, at_pos);
  const auto is_node = [&topo](std::string_view name) {
    for (net::NodeId n = 0; n < topo.node_count(); ++n) {
      if (topo.node_name(n) == name) return true;
    }
    return false;
  };
  std::size_t split = std::string::npos;
  for (std::size_t dash = ends.find('-'); dash != std::string::npos;
       dash = ends.find('-', dash + 1)) {
    if (!is_node(ends.substr(0, dash)) || !is_node(ends.substr(dash + 1))) {
      continue;
    }
    if (split != std::string::npos) {
      throw std::invalid_argument("--" + flag + "=" + spec +
                                  ": more than one dash splits '" + ends +
                                  "' into two node names");
    }
    split = dash;
  }
  if (split == std::string::npos) {
    throw std::invalid_argument("--" + flag + "=" + spec +
                                ": no dash splits '" + ends +
                                "' into two node names");
  }
  const net::NodeId a = topo.node_by_name(ends.substr(0, split));
  const net::NodeId b = topo.node_by_name(ends.substr(split + 1));
  const double t = std::stod(spec.substr(at_pos + 1));
  if (!(t >= 0.0 && t <= run_end.sec())) {
    char run_s[32];
    std::snprintf(run_s, sizeof run_s, "%g", run_end.sec());
    throw std::invalid_argument("--" + flag + "=" + spec +
                                ": the time must lie within the run, [0, " +
                                run_s + "] s (warm-up plus window)");
  }
  const net::LinkId link = topo.link_between(a, b);
  if (link == net::kInvalidLink) {
    throw std::invalid_argument("no trunk between the named nodes: " + spec);
  }
  return TrunkEvent{link, util::SimTime::from_sec(t), up};
}

int run(const util::Flags& flags) {
  const net::Topology topo =
      load_topology(flags.get_string("topology", "arpanet87"));

  if (flags.get_bool("write-topology")) {
    net::write_topology(std::cout, topo);
    return 0;
  }

  sim::NetworkConfig cfg;
  cfg.metric = parse_metric(flags.get_string("metric", "hnspf"));
  cfg.algorithm = parse_algorithm(flags.get_string("algorithm", "spf"));
  cfg.multipath = flags.get_bool("multipath");
  cfg.queue_capacity = static_cast<int>(flags.get_long("queue-capacity", 40));
  cfg.seed = static_cast<std::uint64_t>(flags.get_long("seed", 0x1987));

  const double load_bps = flags.get_double("load-kbps", 400.0) * 1e3;
  const sim::TrafficShape shape =
      parse_shape(flags.get_string("shape", "peak-hour"));
  const auto warmup =
      util::SimTime::from_sec(flags.get_double("warmup-sec", 120.0));
  const auto window =
      util::SimTime::from_sec(flags.get_double("window-sec", 300.0));

  const util::SimTime run_end = warmup + window;
  std::vector<TrunkEvent> events;
  if (const auto f = flags.get("fail-trunk")) {
    events.push_back(
        parse_trunk_event(topo, "fail-trunk", *f, /*up=*/false, run_end));
  }
  if (const auto r = flags.get("recover-trunk")) {
    events.push_back(
        parse_trunk_event(topo, "recover-trunk", *r, /*up=*/true, run_end));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TrunkEvent& x, const TrunkEvent& y) {
                     return x.at < y.at;
                   });
  const bool show_utilization = flags.get_bool("utilization");

  for (const std::string& u : flags.unknown()) {
    std::fprintf(stderr, "unknown flag --%s (see header of arpanet_sim.cpp)\n",
                 u.c_str());
    return 2;
  }

  sim::Network net{topo, cfg};
  const auto matrix = shape == sim::TrafficShape::kUniform
                          ? traffic::TrafficMatrix::uniform(topo.node_count(),
                                                            load_bps)
                          : traffic::TrafficMatrix::peak_hour(
                                topo.node_count(), load_bps,
                                util::Rng{cfg.seed ^ 0xfeedULL});
  net.add_traffic(matrix);

  // Trunk events are wall-clock (from t=0): run the network up to each one's
  // time, after every event due by then, and switch the trunk directly.
  auto next = events.begin();
  const auto advance_to = [&](util::SimTime end) {
    for (; next != events.end() && next->at <= end; ++next) {
      net.run_until(next->at);
      net.set_trunk_up(next->link, next->up);
    }
    net.run_until(end);
  };
  advance_to(warmup);
  net.reset_stats();
  advance_to(run_end);

  const auto ind = net.indicators(to_string(cfg.metric));
  std::printf("topology    %zu nodes, %zu trunks\n", topo.node_count(),
              topo.trunk_count());
  std::printf("routing     %s / %s%s\n", to_string(cfg.algorithm),
              to_string(cfg.metric), cfg.multipath ? " + multipath" : "");
  std::printf("offered     %.1f kb/s (%s), window %.0f s after %.0f s warmup\n",
              load_bps / 1e3, to_string(shape), window.sec(), warmup.sec());
  std::printf("delivered   %.1f kb/s (%.1f pkt/s)\n",
              ind.internode_traffic_kbps, ind.delivered_packets_per_sec);
  std::printf("delay       %.1f ms round trip\n", ind.round_trip_delay_ms);
  std::printf("paths       %.2f hops actual vs %.2f minimum (ratio %.3f)\n",
              ind.actual_path_hops, ind.minimum_path_hops, ind.path_ratio());
  std::printf("updates     %.3f per trunk per second, node period %.1f s\n",
              ind.updates_per_trunk_sec, ind.update_period_per_node_sec);
  const auto& s = net.stats();
  std::printf("drops       %ld queue, %ld loop, %ld unreachable\n",
              s.packets_dropped_queue, s.packets_dropped_loop,
              s.packets_dropped_unreachable);

  if (show_utilization) {
    std::printf("\ntrunk utilization (last bucket, per direction):\n");
    const std::size_t bucket = static_cast<std::size_t>(
        net.now().us() / sim::Network::kStatsBucket.us()) - 1;
    for (std::size_t l = 0; l < topo.link_count(); l += 2) {
      const net::Link& link = topo.link(static_cast<net::LinkId>(l));
      std::printf("  %-12s <-> %-12s %-19s %5.1f%% / %5.1f%%\n",
                  std::string(topo.node_name(link.from)).c_str(),
                  std::string(topo.node_name(link.to)).c_str(),
                  std::string(to_string(link.type)).c_str(),
                  100.0 * net.link_utilization(link.id, bucket),
                  100.0 * net.link_utilization(link.reverse, bucket));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags{argc, argv});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arpanet_sim: %s\n", e.what());
    return 1;
  }
}
