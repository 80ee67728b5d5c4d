#include "src/sim/scenario.h"

#include <stdexcept>
#include <utility>

#include "src/obs/stopwatch.h"
#include "src/util/alloc_guard.h"

namespace arpanet::sim {

ScenarioConfig& ScenarioConfig::with_metric(metrics::MetricKind m) {
  metric = m;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_load_bps(double bps) {
  if (bps < 0.0) {
    throw std::invalid_argument("ScenarioConfig: offered load must be >= 0");
  }
  offered_load_bps = bps;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_shape(TrafficShape s) {
  shape = s;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_warmup(util::SimTime t) {
  if (t < util::SimTime::zero()) {
    throw std::invalid_argument("ScenarioConfig: warmup must be >= 0");
  }
  warmup = t;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_window(util::SimTime t) {
  if (t <= util::SimTime::zero()) {
    throw std::invalid_argument(
        "ScenarioConfig: measurement window must be > 0");
  }
  window = t;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

ScenarioConfig& ScenarioConfig::with_label(std::string l) {
  label = std::move(l);
  return *this;
}

ScenarioConfig& ScenarioConfig::with_network(NetworkConfig cfg) {
  network = std::move(cfg);
  return *this;
}

ScenarioConfig& ScenarioConfig::with_matrix(traffic::TrafficMatrix m) {
  matrix = std::move(m);
  return *this;
}

ScenarioConfig& ScenarioConfig::with_faults(FaultPlan plan) {
  faults = std::move(plan);
  return *this;
}

ScenarioConfig& ScenarioConfig::with_faults(std::string_view spec) {
  faults = FaultPlan::parse(spec);
  return *this;
}

std::string ScenarioConfig::effective_label() const {
  if (!label.empty()) return label;
  return to_string(metric);
}

void ScenarioConfig::validate() const {
  if (offered_load_bps < 0.0) {
    throw std::invalid_argument("ScenarioConfig: offered load must be >= 0");
  }
  if (warmup < util::SimTime::zero()) {
    throw std::invalid_argument("ScenarioConfig: warmup must be >= 0");
  }
  if (window <= util::SimTime::zero()) {
    throw std::invalid_argument(
        "ScenarioConfig: measurement window must be > 0");
  }
  if (network.queue_capacity <= 0) {
    throw std::invalid_argument("ScenarioConfig: queue capacity must be > 0");
  }
}

traffic::TrafficMatrix scenario_matrix(const net::Topology& topo,
                                       const ScenarioConfig& cfg) {
  if (cfg.matrix) {
    if (cfg.matrix->nodes() != topo.node_count()) {
      throw std::invalid_argument(
          "ScenarioConfig: explicit matrix size does not match topology");
    }
    return *cfg.matrix;
  }
  switch (cfg.shape) {
    case TrafficShape::kUniform:
      return traffic::TrafficMatrix::uniform(topo.node_count(),
                                             cfg.offered_load_bps);
    case TrafficShape::kPeakHour:
      return traffic::TrafficMatrix::peak_hour(topo.node_count(),
                                               cfg.offered_load_bps,
                                               util::Rng{cfg.seed ^ 0xfeedULL});
  }
  throw std::invalid_argument("unknown TrafficShape");
}

ScenarioResult run_scenario(const net::Topology& topo, const ScenarioConfig& cfg,
                            const std::string& label) {
  cfg.validate();
  ScenarioResult result;
  {
    const obs::ScopedTimer timer{result.wall_seconds};
    NetworkConfig ncfg = cfg.network;
    ncfg.metric = cfg.metric;
    ncfg.seed = cfg.seed;
    Network network{topo, ncfg};
    if (cfg.faults && !cfg.faults->empty()) {
      network.install_faults(*cfg.faults, cfg.warmup + cfg.window);
    }
    network.add_traffic(scenario_matrix(topo, cfg));
    network.run_for(cfg.warmup);
    network.reset_stats();
    // Pre-extend the bucketed series past the window, then count every
    // heap allocation the steady-state phase makes. Zero is the expected
    // Release-build value for the battery topologies (the pools and
    // scratch buffers reach their high-water capacity during warm-up);
    // the count is reported, not asserted, so debug/sanitizer builds and
    // unusual configs stay valid.
    network.reserve_stats_until(network.now() + cfg.window);
    // The calendar queue rebuilds its bucket array when the pending
    // population crosses a power-of-two boundary; fault churn (queue drains,
    // restart floods) can push the window's peak past anything warm-up saw,
    // so give the geometry headroom now instead of allocating mid-window.
    network.reserve_event_headroom();
    std::uint64_t window_alloc_bytes = 0;
    {
      const util::AllocGuard guard;
      network.run_for(cfg.window);
      window_alloc_bytes = guard.bytes();
    }
    result.indicators =
        network.indicators(label.empty() ? cfg.effective_label() : label);
    result.stats = network.stats();
    result.audit = analysis::audit_network(network);
    result.stability = network.stability();
    result.counters = network.counters();
    result.counters.alloc_guard_scopes = 1;
    result.counters.alloc_guard_bytes_peak = window_alloc_bytes;
    result.events_processed = network.events_processed();
  }
  return result;
}

}  // namespace arpanet::sim
