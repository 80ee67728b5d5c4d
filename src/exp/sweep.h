// Scenario sweeps: the experiment shape behind every figure and table in
// the paper — the same scenario re-run across offered loads, metric kinds,
// seeds, and topologies.
//
// SweepSpec declares the axes; the cross product is expanded into an
// ordered list of SweepCells; SweepRunner (sweep_runner.h) executes the
// cells on a thread pool. Results are bit-identical at any thread count:
// each cell derives its own RNG stream from `seed ^ hash(axes)`, runs an
// isolated sim::Network, and lands in its fixed slot of the SweepResult.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/net/topology.h"
#include "src/sim/scenario.h"

namespace arpanet::exp {

/// A topology axis value: the graph plus the name it reports under.
struct NamedTopology {
  std::string name;
  net::Topology topo;
};

/// The declarative description of a sweep: a base ScenarioConfig (warm-up,
/// window, network tuning, traffic shape) plus one value list per axis.
/// Empty axis lists fall back to the base config's value, so a spec only
/// names the axes it actually sweeps.
struct SweepSpec {
  sim::ScenarioConfig base;
  std::vector<metrics::MetricKind> metrics;
  std::vector<double> loads_bps;
  std::vector<std::uint64_t> seeds;
  /// Topology axis. Usually empty: the Experiment's own topology is the
  /// single value. Non-empty lists run every cell on every named topology.
  std::vector<NamedTopology> topologies;
  /// Declarative topology axis: GraphSpecs built through the TopologyBuilder
  /// registry. The runner materializes these (single-threaded, in list
  /// order) and appends them after `topologies`, so a sweep can range over
  /// family x size without pre-building graphs. Each spec reports under its
  /// label().
  std::vector<net::GraphSpec> topology_specs;

  // ---- fluent construction ----
  SweepSpec& over_metrics(std::vector<metrics::MetricKind> kinds);
  SweepSpec& over_loads_bps(std::vector<double> loads);
  /// Inclusive arithmetic progression; throws on step <= 0 or to < from.
  SweepSpec& over_load_range_bps(double from, double to, double step);
  SweepSpec& over_seeds(std::vector<std::uint64_t> s);
  /// n replica seeds base.seed, base.seed+1, ... (throws on n <= 0).
  SweepSpec& over_replicas(int n);
  SweepSpec& over_topologies(std::vector<NamedTopology> topos);
  /// Validates every spec against the registry now (bad family/params throw
  /// std::invalid_argument at spec time, not mid-sweep).
  SweepSpec& over_topology_specs(std::vector<net::GraphSpec> specs);

  /// Builds topology_specs through the registry, in list order, each named
  /// by its label(). Deterministic regardless of runner thread count.
  [[nodiscard]] std::vector<NamedTopology> materialize_topologies() const;

  /// Cells this spec expands to, given a default topology for the empty
  /// topology axis.
  [[nodiscard]] std::size_t cell_count() const;
};

/// One point of the cross product, in deterministic enumeration order
/// (topology-major, then metric, load, seed).
struct SweepCell {
  std::size_t index = 0;
  std::string topology;
  const net::Topology* topo = nullptr;  ///< borrowed from spec / experiment
  metrics::MetricKind metric = metrics::MetricKind::kHnSpf;
  double offered_load_bps = 0.0;
  sim::TrafficShape shape = sim::TrafficShape::kPeakHour;  ///< base.shape
  std::uint64_t seed = 0;          ///< the axis value (replica id)
  std::uint64_t derived_seed = 0;  ///< seed ^ hash(other axes): the RNG stream

  /// The scenario config this cell runs (base + axis values + derived seed).
  [[nodiscard]] sim::ScenarioConfig to_config(
      const sim::ScenarioConfig& base) const;
};

/// Expands the cross product against `default_topo` (used when
/// spec.topologies is empty). Pointers into `spec` and `default_topo` are
/// borrowed: both must outlive the returned cells.
[[nodiscard]] std::vector<SweepCell> expand_cells(
    const SweepSpec& spec, const NamedTopology& default_topo);

/// The deterministic per-cell stream id: axis seed XOR a stable 64-bit hash
/// of the remaining axes (FNV-1a based, identical across platforms and
/// thread counts).
[[nodiscard]] std::uint64_t derive_cell_seed(const std::string& topology,
                                             metrics::MetricKind metric,
                                             double offered_load_bps,
                                             sim::TrafficShape shape,
                                             std::uint64_t seed);

/// One executed cell.
struct SweepRun {
  SweepCell cell;
  sim::ScenarioResult result;
  int worker = -1;  ///< thread that executed the cell (telemetry only)
};

/// All runs of a sweep, in cell order regardless of execution order.
class SweepResult {
 public:
  std::vector<SweepRun> runs;
  int threads_used = 1;
  double elapsed_seconds = 0.0;  ///< wall clock of the whole sweep

  [[nodiscard]] std::size_t size() const { return runs.size(); }
  [[nodiscard]] const SweepRun& at(std::size_t i) const { return runs.at(i); }

  /// Sum of per-run wall times (the serial-equivalent cost).
  [[nodiscard]] double total_run_seconds() const;
  [[nodiscard]] std::uint64_t total_events() const;
  /// total_run_seconds / elapsed_seconds: the achieved parallelism.
  [[nodiscard]] double speedup() const;

  /// Deterministic CSV: axes + indicators + drop/update counters. Identical
  /// bytes for identical specs at any thread count.
  void write_csv(std::ostream& os) const;
  [[nodiscard]] std::string csv() const;

  /// Human summary of the sweep's own performance (threads, events/sec,
  /// achieved speedup).
  void write_summary(std::ostream& os) const;
};

}  // namespace arpanet::exp
