// Benchmark trend checking: compares two arpanet-bench-metrics documents.
//
// The CI bench-smoke job runs the battery on every push; without a checker
// the events_per_sec telemetry is write-only and a performance regression
// only surfaces when someone reads the artifacts by hand. compare_bench_reports
// diffs a freshly produced report against a committed baseline
// (bench/baseline/) and flags:
//
//   * schema / battery / cell-set mismatches — the reports are not comparable;
//   * drift in the deterministic work fields (events, SPF counters, packet
//     counts, delay percentiles, checksums). The simulation is
//     bit-reproducible for a given seed on any machine, so these compare
//     exactly by default — a change means the simulation itself changed,
//     not the hardware;
//   * throughput regressions beyond a configurable noise band. Wall time is
//     machine-dependent, so CI runs with a generous band while a developer
//     comparing two runs of one machine can tighten it.
//
// Every cell section (scenarios, micro, topo) is checked alike, each field
// by its class in kBenchFields (src/obs/bench_report.h).
//
// tools/bench_compare is the CLI wrapper; it exits nonzero on any violation
// so the CI job fails loudly.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace arpanet::obs {

struct CompareOptions {
  /// Allowed fractional drop in a cell's rate before it is flagged
  /// (0.10 = current may be up to 10% slower than baseline). Cells whose
  /// baseline rate is zero (a masked document) skip the rate check.
  double rate_noise = 0.10;
  /// Allowed fractional drift in the deterministic work fields; digests
  /// stay exact. The default demands exact equality; raise it only when
  /// comparing across code changes that intentionally alter the workload.
  double work_noise = 0.0;
};

/// One cell's throughput comparison.
struct CellDelta {
  std::string section;  ///< the document's cell array: scenarios, micro, topo
  std::string name;     ///< "ring6/HN-SPF" for a scenario, else the cell name
  double baseline_rate = 0.0;  ///< the section's FieldClass::kRate field
  double current_rate = 0.0;
  /// current / baseline; 0 when the baseline rate is masked.
  double ratio = 0.0;
  /// True when the baseline rate came from a rolling rates artifact
  /// (compare_bench_reports' rates_json) instead of the committed baseline.
  bool rate_from_artifact = false;
};

struct CompareReport {
  std::vector<CellDelta> cells;  ///< every section's cells, in document order
  std::vector<std::string> violations;  ///< empty means the check passed

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Human-readable per-cell table plus any violations.
  void write_text(std::ostream& os) const;
};

/// Parses and diffs two bench documents (see file comment for the checks).
///
/// With `rates_json` (rolling mode) the deterministic work fields still
/// diff against `baseline_json` (the committed baseline), but the
/// throughput noise band is checked against the rates of `rates_json` — a
/// previous run's artifact from the same machine class (e.g. the last green
/// CI run), which permits a much tighter band than the cross-machine
/// committed baseline. Cells absent from the rates document fall back to
/// the committed baseline's rate. The rates document must also carry the
/// current document's build_flavor — trending LTO wall times against plain
/// ones (or vice versa) would alias a flavor switch as a regression.
///
/// Throws std::invalid_argument when a document cannot be parsed or does
/// not carry the expected schema.
[[nodiscard]] CompareReport compare_bench_reports(
    const std::string& baseline_json, const std::string& current_json,
    const CompareOptions& options = {},
    const std::optional<std::string>& rates_json = std::nullopt);

}  // namespace arpanet::obs
