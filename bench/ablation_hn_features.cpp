// Ablation: which HNM mechanism buys what (DESIGN.md design-choice index).
//
// The revised metric stacks four mechanisms on the raw utilization->cost
// transform: (1) the 0.5/0.5 averaging filter, (2) movement limits of about
// half a hop per update, (3) the one-unit up/down asymmetry (march-up, the
// epsilon-problem fix), and (4) the absolute cap at ~3 hops. This bench
// re-runs the section 5.4 dynamic iteration with each mechanism disabled
// and reports the oscillation amplitude and sustained utilization, showing
// each feature's contribution to the paper's stability claims.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/analysis/response_map.h"
#include "src/core/line_params.h"
#include "src/net/builders/registry.h"

using namespace arpanet;

namespace {

struct Variant {
  const char* name;
  bool averaging;
  bool movement_limits;
  bool march_up;       // meaningful only with movement_limits
  double max_cost;     // routing units (90 = the shipped 3-hop cap)
};

struct Outcome {
  double amplitude;  // tail peak-to-peak cost swing, hops
  double mean_util;  // tail mean utilization
};

/// The section 5.4 iteration with feature toggles. Mirrors core::HnMetric
/// (which the library ships and tests); reimplemented here so each internal
/// mechanism can be switched off — ablations are experiment code, not API.
Outcome iterate(const analysis::NetworkResponseMap& map, const Variant& v,
                double load, int steps = 120) {
  const core::LineTypeParams params =
      core::LineParamsTable::arpanet_defaults().for_type(
          net::LineType::kTerrestrial56);
  const double hop = params.base_min;
  const double up = params.up_limit();
  const double down = v.march_up ? params.down_limit() : up;

  double reported = params.base_min;  // start at the idle floor
  double avg = 0.0;
  std::vector<double> costs;
  std::vector<double> utils;
  for (int i = 0; i < steps; ++i) {
    const double u = std::min(1.0, load * map.traffic_fraction(reported / hop));
    costs.push_back(reported / hop);
    utils.push_back(u);
    avg = v.averaging ? 0.5 * u + 0.5 * avg : u;
    double raw = params.raw_cost(avg);
    if (v.movement_limits) {
      raw = std::clamp(raw, reported - down, reported + up);
    }
    reported = std::clamp(raw, params.base_min, v.max_cost);
  }

  Outcome out{0.0, 0.0};
  const std::size_t tail = costs.size() / 2;
  double lo = costs[tail];
  double hi = costs[tail];
  for (std::size_t i = tail; i < costs.size(); ++i) {
    lo = std::min(lo, costs[i]);
    hi = std::max(hi, costs[i]);
    out.mean_util += utils[i] / static_cast<double>(costs.size() - tail);
  }
  out.amplitude = hi - lo;
  return out;
}

}  // namespace

int main() {
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix = traffic::TrafficMatrix::peak_hour(
      topo.node_count(), 400e3, util::Rng{1987});
  const auto map = analysis::NetworkResponseMap::build(topo, matrix);

  const Variant variants[] = {
      {"full HNM", true, true, true, 90.0},
      {"no averaging", false, true, true, 90.0},
      {"no movement limits", true, false, true, 90.0},
      {"symmetric limits (no march-up)", true, true, false, 90.0},
      {"no 3-hop cap (max=8 hops)", true, true, true, 240.0},
  };

  std::printf("# Ablation: HNM stability mechanisms "
              "(tail cost amplitude in hops / tail mean utilization)\n");
  std::printf("# %-32s", "variant");
  const double loads[] = {0.75, 1.0, 1.5, 2.0};
  for (const double l : loads) std::printf("  load=%4.2f      ", l);
  std::printf("\n");
  for (const Variant& v : variants) {
    std::printf("  %-32s", v.name);
    for (const double l : loads) {
      const Outcome o = iterate(map, v, l);
      std::printf("  %5.2f / %-5.3f ", o.amplitude, o.mean_util);
    }
    std::printf("\n");
  }
  std::printf("\n# reading: disabling limits or averaging inflates the"
              " amplitude under load;\n# the full HNM keeps it within ~half a"
              " hop while sustaining utilization.\n");
  return 0;
}
