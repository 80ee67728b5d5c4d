// Scenario runner: warm-up + measurement-window experiment harness.
//
// Wraps the build-network / attach-traffic / warm-up / measure sequence that
// every whole-network experiment (Table 1, fig. 13, the examples, the
// integration tests) repeats.
//
// ScenarioConfig is both an aggregate (existing call sites assign fields
// directly) and a fluent builder with validated setters:
//
//   auto cfg = sim::ScenarioConfig{}
//                  .with_metric(metrics::MetricKind::kHnSpf)
//                  .with_load_bps(414e3)
//                  .with_seed(0x1987);
//
// New code should go through exp::Experiment (src/exp/experiment.h), which
// runs single scenarios and parallel sweeps through this config type.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/analysis/invariants.h"
#include "src/net/topology.h"
#include "src/obs/counters.h"
#include "src/sim/network.h"
#include "src/traffic/traffic_matrix.h"

namespace arpanet::sim {

enum class TrafficShape { kUniform, kPeakHour };

[[nodiscard]] constexpr const char* to_string(TrafficShape s) {
  switch (s) {
    case TrafficShape::kUniform: return "uniform";
    case TrafficShape::kPeakHour: return "peak-hour";
  }
  return "?";
}

struct ScenarioConfig {
  metrics::MetricKind metric = metrics::MetricKind::kHnSpf;
  /// Total offered load summed over all pairs, bits/second.
  double offered_load_bps = 300e3;
  TrafficShape shape = TrafficShape::kPeakHour;
  util::SimTime warmup = util::SimTime::from_sec(120);
  util::SimTime window = util::SimTime::from_sec(600);
  std::uint64_t seed = 0x19870726ULL;
  NetworkConfig network;  ///< metric field is overwritten from `metric`
  /// Result label (indicator column). Empty: derived from the metric.
  std::string label;
  /// Explicit traffic matrix; overrides shape/offered_load_bps when set.
  std::optional<traffic::TrafficMatrix> matrix;
  /// Deterministic fault schedule (link flaps, crashes, outages, partitions,
  /// line upgrades) injected through the calendar queue. Compiled against
  /// the topology at run time; horizon is warmup + window.
  std::optional<FaultPlan> faults;

  // ---- fluent, validated setters ----
  // Each returns *this so calls chain; each throws std::invalid_argument on
  // a value the simulator could not run.

  ScenarioConfig& with_metric(metrics::MetricKind m);
  ScenarioConfig& with_load_bps(double bps);       ///< rejects negative load
  ScenarioConfig& with_shape(TrafficShape s);
  ScenarioConfig& with_warmup(util::SimTime t);    ///< rejects negative
  ScenarioConfig& with_window(util::SimTime t);    ///< rejects zero/negative
  ScenarioConfig& with_seed(std::uint64_t s);
  ScenarioConfig& with_label(std::string l);
  ScenarioConfig& with_network(NetworkConfig cfg);
  ScenarioConfig& with_matrix(traffic::TrafficMatrix m);
  ScenarioConfig& with_faults(FaultPlan plan);
  /// Parses a fault-plan spec string ("flap:link=3,period_s=10,dwell_s=2";
  /// see FaultPlan::parse) — the sweep-friendly form. Throws
  /// std::invalid_argument on a malformed spec.
  ScenarioConfig& with_faults(std::string_view spec);

  /// The label a run of this config reports: `label`, or the metric
  /// kind's name.
  [[nodiscard]] std::string effective_label() const;

  /// Full-config check (the setters validate only their own field; direct
  /// aggregate writes bypass them). Throws std::invalid_argument.
  void validate() const;
};

struct ScenarioResult {
  stats::NetworkIndicators indicators;
  NetworkStats stats;
  // ---- per-run telemetry ----
  double wall_seconds = 0.0;            ///< host time spent in the run
  std::uint64_t events_processed = 0;   ///< simulator events executed
  /// Whole-run observability counters (src/obs/counters.h), warm-up
  /// included — SPF work, flooding volume, forwarding, queue depth.
  obs::Counters counters;
  /// What the end-of-run self-audit covered.
  analysis::AuditStats audit;
  /// Routing-stability telemetry for the measurement window (all zeros when
  /// the run had no faults and no route churn).
  StabilityStats stability;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events_processed) / wall_seconds
                            : 0.0;
  }
};

/// Runs one scenario to completion and returns the measurement-window
/// results. `label` names the indicator column (e.g. "D-SPF"); when empty
/// the config's effective label is used. Prefer exp::Experiment for new
/// code; this remains the single-run primitive underneath it.
///
/// When the window ends, analysis::audit_network checks every live reported
/// cost, equilibrium map and SPF tree against the paper's invariants, and
/// any violation aborts. Movement limits are checked as the run goes
/// (Network::on_cost_reported).
[[nodiscard]] ScenarioResult run_scenario(const net::Topology& topo,
                                          const ScenarioConfig& cfg,
                                          const std::string& label);

/// Builds the scenario's traffic matrix without running (for reuse).
[[nodiscard]] traffic::TrafficMatrix scenario_matrix(const net::Topology& topo,
                                                     const ScenarioConfig& cfg);

}  // namespace arpanet::sim
