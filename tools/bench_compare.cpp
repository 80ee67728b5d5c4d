// bench_compare: diffs two arpanet-bench-metrics documents and fails on
// regressions (src/obs/bench_compare.h).
//
//   bench_compare --baseline=bench/baseline/BENCH_metrics.json
//                 --current=BENCH_metrics.json [--noise=0.10] [--work-noise=0]
//                 [--rates-from=PREV_ARTIFACT.json]
//
// --rates-from enables the rolling artifact-to-artifact mode: deterministic
// work fields still diff exactly against --baseline, but the throughput
// noise band anchors to the previous run's artifact (same machine class),
// which supports a much tighter --noise than the cross-machine committed
// baseline. Rolling mode also requires the artifact's build_flavor to match
// the current document's (plain vs LTO rates must never mix).
//
// Exit codes: 0 = within tolerance, 1 = regression or incomparable cells,
// 2 = usage/IO/parse error. The CI bench-smoke job runs this against the
// committed baseline so an events_per_sec regression (or any drift in the
// deterministic work fields) fails the build instead of rotting in an
// artifact nobody reads.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "src/obs/bench_compare.h"
#include "src/util/flags.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arpanet;

  const util::Flags flags{argc, argv};
  const std::string baseline_path = flags.get_string("baseline", "");
  const std::string current_path = flags.get_string("current", "");
  const std::string rates_path = flags.get_string("rates-from", "");
  obs::CompareOptions options;
  options.rate_noise = flags.get_double("noise", options.rate_noise);
  options.work_noise = flags.get_double("work-noise", options.work_noise);
  for (const std::string& f : flags.unknown()) {
    std::cerr << "bench_compare: unknown flag --" << f << "\n";
    return 2;
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::cerr << "usage: bench_compare --baseline=FILE --current=FILE"
                 " [--noise=0.10] [--work-noise=0] [--rates-from=FILE]\n";
    return 2;
  }

  obs::CompareReport report;
  try {
    std::optional<std::string> rates;
    if (!rates_path.empty()) rates = read_file(rates_path);
    report = obs::compare_bench_reports(read_file(baseline_path),
                                        read_file(current_path), options,
                                        rates);
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }

  report.write_text(std::cout);
  return report.ok() ? 0 : 1;
}
