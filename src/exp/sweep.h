// Scenario sweeps: the experiment shape behind every figure and table in
// the paper — the same scenario re-run across metric kinds, offered loads
// and seeds on one topology.
//
// SweepSpec declares the axes; the cross product is expanded into an
// ordered list of SweepCells, and run_sweep executes them on a thread pool.
// Results are bit-identical at any thread count: each cell derives its own
// RNG stream from `seed ^ hash(axes)`, runs an isolated sim::Network, and
// lands in its fixed slot of the SweepResult.
//
//   const net::Topology topo = net::build_topology("arpanet87");
//   exp::SweepSpec spec;
//   spec.over_metrics({MetricKind::kDspf, MetricKind::kHnSpf})
//       .over_load_range_bps(250e3, 550e3, 75e3);
//   exp::run_sweep(spec, topo, "arpanet87").write_csv(std::cout);
//
// A single run is sim::run_scenario (src/sim/scenario.h); a cell's
// to_config run through it gives the cell's result exactly.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/sim/scenario.h"

namespace arpanet::exp {

/// The declarative description of a sweep: a base ScenarioConfig (warm-up,
/// window, network tuning, traffic shape) plus one value list per axis.
/// Empty axis lists fall back to the base config's value, so a spec only
/// names the axes it actually sweeps.
struct SweepSpec {
  sim::ScenarioConfig base;
  std::vector<metrics::MetricKind> metrics;
  std::vector<double> loads_bps;
  std::vector<std::uint64_t> seeds;

  // ---- fluent construction ----
  SweepSpec& over_metrics(std::vector<metrics::MetricKind> kinds);
  SweepSpec& over_loads_bps(std::vector<double> loads);
  /// Inclusive arithmetic progression; throws on step <= 0 or to < from.
  SweepSpec& over_load_range_bps(double from, double to, double step);
  SweepSpec& over_seeds(std::vector<std::uint64_t> s);
  /// n replica seeds base.seed, base.seed+1, ... (throws on n <= 0).
  SweepSpec& over_replicas(int n);

  /// Cells this spec expands to.
  [[nodiscard]] std::size_t cell_count() const;
};

/// One point of the cross product, in deterministic enumeration order
/// (metric-major, then load, seed).
struct SweepCell {
  std::size_t index = 0;
  std::string topology;  ///< the sweep's topology name (CSV and seed hash)
  metrics::MetricKind metric = metrics::MetricKind::kHnSpf;
  double offered_load_bps = 0.0;
  sim::TrafficShape shape = sim::TrafficShape::kPeakHour;  ///< base.shape
  std::uint64_t seed = 0;          ///< the axis value (replica id)
  std::uint64_t derived_seed = 0;  ///< seed ^ hash(other axes): the RNG stream

  /// The scenario config this cell runs (base + axis values + derived seed).
  [[nodiscard]] sim::ScenarioConfig to_config(
      const sim::ScenarioConfig& base) const;
};

/// Expands the cross product; every cell reports under `topology`.
[[nodiscard]] std::vector<SweepCell> expand_cells(const SweepSpec& spec,
                                                  const std::string& topology);

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

struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (capped at
  /// the cell count — threads beyond that would sit idle).
  int threads = 0;
  /// Optional progress callback, invoked after each cell completes, from
  /// the worker that ran it (serialized internally — the callback itself
  /// need not lock).
  std::function<void(const SweepRun&)> on_run_done;
};

/// Expands `spec` and runs every cell on `topo`, reporting under the name
/// `topology`. Workers pull the next unclaimed cell and write its run into
/// the cell's fixed slot, so only telemetry (wall times, worker ids)
/// depends on the thread count. An exception thrown by a cell (e.g. an
/// invalid config) is rethrown on the calling thread after all workers
/// drain.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const net::Topology& topo,
                                    const std::string& topology,
                                    const SweepOptions& opts = {});

}  // namespace arpanet::exp
