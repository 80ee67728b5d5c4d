// The benchmark battery behind tools/bench_report and the bench-smoke CI
// job: a fixed set of scenarios (reference topologies under HN-SPF and
// D-SPF) run through the sweep engine, with every cell's observability
// counters, delay percentiles and event-rate telemetry exported as one
// schema-versioned JSON document (BENCH_metrics.json).
//
// Everything except the wall-time fields is deterministic: cells are
// emitted in sweep enumeration order and carry no worker/thread
// information, so the same battery produces byte-identical JSON at any
// thread count once mask_wall_time_fields() blanks the timings. That is
// the property the golden-file test (tests/bench_report_test.cpp) pins.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/graph_spec.h"
#include "src/net/topology.h"
#include "src/obs/counters.h"
#include "src/util/units.h"

namespace arpanet::obs {

/// JSON document identity; consumers reject documents whose schema pair
/// they do not understand. Bump the version on any field change.
/// v2: nested per-cell "event_queue" object (peak_depth, slab_slots,
/// resizes, overflow_scheduled) replacing the flat event_queue_peak_depth,
/// plus the top-level "micro" array of event-queue microbenchmark cells.
/// v3: top-level "topo" array of large-topology cells (generated-family
/// graph build + SPF-at-scale throughput; see TopoCell).
/// v4: per-cell "alloc_guard" object (scopes, bytes_peak) from the
/// measurement-window allocation guard (util/alloc_guard.h); bytes_peak is
/// masked like the wall-time fields since sanitizer/debug builds allocate.
/// v5: per-cell "fault_spec" string and "stability" object (route_changes,
/// flat_oscillations, max_movement, faults_applied, reconverge_sec) from
/// the scenario fault engine (sim/fault_plan.h). All deterministic —
/// reconverge_sec is sim time, not wall time, so it is golden-pinned.
/// v6: top-level "build_flavor" string (a kBuildFlavors name, from the
/// ARPANET_LTO and SANITIZE CMake settings) so rolling baselines never mix
/// build flavors, plus a top-level "shards" array of sharded-engine
/// scaling cells.
/// v7: the "shards" array is gone with the sharded engine (one thread per
/// network).
inline constexpr const char* kBenchSchemaName = "arpanet-bench-metrics";
inline constexpr int kBenchSchemaVersion = 7;

/// How bench_compare and mask_wall_time_fields() treat a numeric field
/// (docs/tools.md §bench_compare). kExact, for every field kBenchFields
/// does not list, is work: a count diffed within CompareOptions::work_noise.
enum class FieldClass : std::uint8_t {
  kExact,
  kWallTime,        ///< masked; the work diff ignores it
  kRate,            ///< a section's throughput: masked; noise band
  kBuildDependent,  ///< masked; exact only between two optimized flavors
  kBandedSimTime,   ///< sim time that re-phases with floods: noise band
  kDigest,          ///< exact whatever work_noise says
};

/// A field's path inside a cell, or its key at the document's top level.
struct BenchField {
  std::string_view path;
  FieldClass cls;
};

inline constexpr std::string_view kBuildFlavorKey = "build_flavor";

inline constexpr BenchField kBenchFields[] = {
    {"elapsed_sec", FieldClass::kWallTime},
    {"wall_sec", FieldClass::kWallTime},
    {"build_sec", FieldClass::kWallTime},
    {"spf_sec", FieldClass::kWallTime},
    {"events_per_sec", FieldClass::kRate},
    {"ops_per_sec", FieldClass::kRate},
    {"spf_nodes_per_sec", FieldClass::kRate},
    {"alloc_guard.bytes_peak", FieldClass::kBuildDependent},
    {kBuildFlavorKey, FieldClass::kBuildDependent},
    {"stability.reconverge_sec", FieldClass::kBandedSimTime},
    {"checksum", FieldClass::kDigest},
    {"graph_checksum", FieldClass::kDigest},
    {"spf_checksum", FieldClass::kDigest},
};

[[nodiscard]] constexpr FieldClass bench_field_class(std::string_view path) {
  for (const BenchField& f : kBenchFields) {
    if (f.path == path) return f.cls;
  }
  return FieldClass::kExact;
}

[[nodiscard]] constexpr bool is_masked(FieldClass cls) {
  return cls == FieldClass::kWallTime || cls == FieldClass::kRate ||
         cls == FieldClass::kBuildDependent;
}

/// A flavor's name in reports. An optimized flavor's measurement window
/// allocates nothing, so bytes_peak is exact work between two of them; a
/// sanitizer runtime allocates there.
struct BuildFlavor {
  std::string_view name;
  bool optimized;
};

/// Plain, ARPANET_LTO and SANITIZE builds (bench_build_flavor() picks one).
inline constexpr BuildFlavor kBuildFlavors[] = {
    {"plain", true}, {"lto", true}, {"sanitizer", false}};

/// The flavor named `name`, or nullptr (an unknown name, or a masked 0).
[[nodiscard]] constexpr const BuildFlavor* find_build_flavor(
    std::string_view name) {
  for (const BuildFlavor& f : kBuildFlavors) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// The flavor this library was compiled with. Reports record it so
/// bench_compare can refuse to trend LTO numbers against plain ones.
[[nodiscard]] std::string_view bench_build_flavor();

/// One benchmark scenario: a topology driven at a fixed offered load. Each
/// scenario runs once per metric in the battery's metric axis.
struct BenchScenario {
  std::string name;  ///< topology label in the report
  net::Topology topo;
  double offered_load_bps = 0.0;
  util::SimTime warmup = util::SimTime::zero();
  util::SimTime window = util::SimTime::zero();
  /// FaultPlan::parse spec injected into every cell of this scenario
  /// (empty = fault-free).
  std::string fault_spec;
};

/// One executed (scenario, metric) cell with its full telemetry.
struct BenchCell {
  std::string topology;
  std::string metric;
  std::size_t nodes = 0;
  std::size_t links = 0;
  double offered_load_bps = 0.0;
  double warmup_sec = 0.0;
  double window_sec = 0.0;

  Counters counters;
  long packets_generated = 0;  ///< measurement window only (NetworkStats)
  long packets_delivered = 0;
  double delay_p50_ms = 0.0;
  double delay_p95_ms = 0.0;
  double delay_p99_ms = 0.0;
  long audit_costs_checked = 0;
  long audit_trees_checked = 0;

  // Routing-stability telemetry (sim::StabilityStats); all sim-time
  // deterministic, including reconverge_sec.
  std::string fault_spec;  ///< the scenario's fault plan ("" = fault-free)
  long stability_route_changes = 0;
  long stability_flat_oscillations = 0;
  double stability_max_movement = 0.0;
  long stability_faults_applied = 0;
  double stability_reconverge_sec = 0.0;

  std::uint64_t events = 0;   ///< simulator events across warm-up + window
  double wall_sec = 0.0;      ///< host time (masked in golden comparisons)
  [[nodiscard]] double events_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
};

/// One event-queue microbenchmark cell: a synthetic schedule/pop workload
/// (hold model) driven directly against sim::EventQueue, isolating queue
/// throughput from the rest of the simulator. `ops` and `checksum` are
/// deterministic (the golden test pins them); only the rate is wall time.
struct MicroCell {
  std::string name;
  std::uint64_t ops = 0;       ///< schedule + pop operations executed
  std::uint64_t checksum = 0;  ///< order-sensitive digest of the pop sequence
  double wall_sec = 0.0;       ///< host time (masked in golden comparisons)
  [[nodiscard]] double ops_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(ops) / wall_sec : 0.0;
  }
};

/// One large-topology cell: a TopologyBuilder registry family built from
/// its GraphSpec, then pushed through full SPF from sampled roots and an
/// incremental-SPF perturbation stream. Everything except build_sec /
/// spf_sec is deterministic — the graph checksum and SPF checksum pin the
/// generated bytes and the routing result, the counters pin the
/// incremental algorithm's work profile — so these cells join the golden
/// byte-identity comparison with only the wall fields masked.
struct TopoCell {
  std::string name;    ///< GraphSpec::label(), e.g. "ba-n10000-s1987-m2"
  std::string family;
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::uint64_t graph_checksum = 0;  ///< FNV over (from, to, prop_us) per link
  std::uint64_t spf_roots = 0;           ///< full Dijkstra roots sampled
  std::uint64_t spf_nodes_settled = 0;   ///< reachable nodes summed over roots
  std::uint64_t spf_checksum = 0;  ///< FNV over (dist bits, first_hop) per node
  long incremental_updates = 0;  ///< IncrementalSpf localized passes
  long skipped_updates = 0;      ///< no-work updates (paper's example)
  long nodes_touched = 0;        ///< distance recomputations, summed
  double build_sec = 0.0;  ///< host time (masked in golden comparisons)
  double spf_sec = 0.0;    ///< fastest full-SPF root-loop pass (masked)
  [[nodiscard]] double spf_nodes_per_sec() const {
    return spf_sec > 0.0 ? static_cast<double>(spf_nodes_settled) / spf_sec
                         : 0.0;
  }
};

/// The whole battery's results, in deterministic cell order.
struct BenchReport {
  std::string battery;
  std::string build_flavor;  ///< bench_build_flavor() at run time
  std::vector<BenchCell> cells;
  std::vector<MicroCell> micro;  ///< event-queue microbenchmarks
  std::vector<TopoCell> topo;    ///< large-topology build + SPF cells
  double elapsed_sec = 0.0;  ///< wall clock of the whole battery

  void write_json(std::ostream& os) const;
  [[nodiscard]] std::string json() const;

  /// Schema self-check: every cell must show real simulation work (nonzero
  /// full/incremental/skipped SPF counts, events, delivered packets).
  /// Returns human-readable violations; empty means the report is valid.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// The named battery's scenario list. "smoke" is the small deterministic
/// set the golden test pins (ring + grid, short windows); "battery" is the
/// full set (arpanet87, a larger grid, the MILNET-like network). Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] std::vector<BenchScenario> bench_battery(
    const std::string& name);

/// Runs one scenario under HN-SPF and D-SPF on `threads` sweep workers
/// (0 = hardware concurrency): one cell per metric, in that order.
[[nodiscard]] std::vector<BenchCell> run_bench_scenario(
    const BenchScenario& scenario, int threads = 0);

/// Runs every scenario of `battery` (run_bench_scenario), then the micro
/// and topology cells, and collects the report.
[[nodiscard]] BenchReport run_bench_battery(const std::string& battery,
                                            int threads = 0);

/// Runs the fixed event-queue microbenchmark cells (a near-future hold
/// model matching the simulator's distribution, and a wide-span variant
/// that exercises the far-future overflow path). Deterministic except for
/// the wall-time fields.
[[nodiscard]] std::vector<MicroCell> run_micro_cells();

/// The named battery's large-topology specs. "smoke" builds one small cell
/// per generated family (fast; the golden test pins the checksums);
/// "battery" scales up — including the 10k-node Barabási–Albert cell — so
/// graph build and SPF-at-scale throughput join the rolling trend check.
/// Throws std::invalid_argument for unknown names.
[[nodiscard]] std::vector<net::GraphSpec> topo_battery(
    const std::string& name);

/// Builds one spec's topology (timed), checksums the generated graph, runs
/// full SPF from deterministically sampled roots (timed, checksummed), and
/// drives an IncrementalSpf through a seeded perturbation stream to record
/// its work profile. Always serial — cell order and content never depend on
/// the sweep thread count.
[[nodiscard]] TopoCell run_topo_cell(const net::GraphSpec& spec);

/// Replaces the value of every masked field of kBenchFields (is_masked:
/// wall time, rates, bytes_peak and build_flavor) with 0, so two reports of
/// the same battery compare byte-for-byte from any build.
[[nodiscard]] std::string mask_wall_time_fields(const std::string& json);

}  // namespace arpanet::obs
