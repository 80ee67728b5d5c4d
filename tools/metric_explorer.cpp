// metric_explorer: inspect and tune metric maps without writing code.
//
// Usage:
//   metric_explorer [--line-type=56kb-terrestrial] [--prop-ms=10]
//                   [--base-min=30] [--max-cost=90] [--threshold=0.5]
//                   [--steps=20] [--dot-topology=arpanet87]
//
// Prints, for the chosen line and (optionally overridden) HNM parameters:
// the D-SPF and HN-SPF cost maps over utilization, the derived movement
// limits, and the hop-normalized view. With --dot-topology it instead emits
// a Graphviz map of the topology any registry spec names (arpanet87, milnet,
// two-region:per_region=4, ...) to stdout.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/metric_map.h"
#include "src/net/builders/registry.h"
#include "src/net/dot_export.h"
#include "src/net/topology_io.h"
#include "src/util/flags.h"

namespace {

using namespace arpanet;

/// Reports every flag no get* call asked about; true if there was one.
bool has_unknown_flags(const util::Flags& flags) {
  const std::vector<std::string> unknown = flags.unknown();
  for (const std::string& u : unknown) {
    std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
  }
  return !unknown.empty();
}

int run(const util::Flags& flags) {
  if (const auto spec = flags.get("dot-topology")) {
    if (has_unknown_flags(flags)) return 2;
    net::write_dot(std::cout, net::build_topology(*spec));
    return 0;
  }

  const net::LineType type =
      net::line_type_from_string(flags.get_string("line-type", "56kb-terrestrial"));
  const auto prop = util::SimTime::from_ms(
      flags.get_double("prop-ms", net::info(type).default_prop_delay.ms()));

  auto params = core::LineParamsTable::arpanet_defaults();
  core::LineTypeParams p = params.for_type(type);
  p.base_min = flags.get_double("base-min", p.base_min);
  p.max_cost = flags.get_double("max-cost", p.max_cost);
  p.flat_threshold = flags.get_double("threshold", p.flat_threshold);
  params.set(type, p);
  const long steps = flags.get_long("steps", 20);

  if (has_unknown_flags(flags)) return 2;

  const core::HnMetric hnm{p, net::info(type).rate, prop};
  const analysis::MetricMap hn{metrics::MetricKind::kHnSpf, type, params, prop};
  const analysis::MetricMap dspf{metrics::MetricKind::kDspf, type, params, prop};

  std::printf("line %s, propagation %.1f ms\n",
              std::string(net::to_string(type)).c_str(), prop.ms());
  std::printf("HNM parameters: min %.1f (base %.1f), max %.1f, flat to %.0f%%\n",
              hnm.min_cost(), p.base_min, p.max_cost, 100 * p.flat_threshold);
  std::printf("movement: up %.1f, down %.1f, update threshold %.1f units\n\n",
              p.up_limit(), p.down_limit(), p.change_threshold());
  std::printf(" util   HN-units  HN-hops   D-SPF-units  D-SPF-hops\n");
  for (long i = 0; i <= steps; ++i) {
    const double u = static_cast<double>(i) / static_cast<double>(steps);
    std::printf("%5.2f  %9.1f %8.2f   %11.1f %11.2f\n", u, hn.cost(u),
                hn.normalized_cost(u), dspf.cost(u), dspf.normalized_cost(u));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags{argc, argv});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metric_explorer: %s\n", e.what());
    return 1;
  }
}
