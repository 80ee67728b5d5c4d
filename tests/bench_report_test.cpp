// tools/bench_report's engine (src/obs/bench_report.h): the smoke battery
// must validate, produce byte-identical masked JSON at any sweep thread
// count, and match the checked-in golden file tests/golden/bench_smoke.json
// (regenerate with: bench_report --scenario=smoke --threads=1 --mask
// --out=tests/golden/bench_smoke.json — or copy the diff this test prints).

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/obs/bench_report.h"

namespace arpanet::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchBatteryTest, KnownBatteriesExpandAndUnknownThrows) {
  const auto smoke = bench_battery("smoke");
  EXPECT_EQ(smoke.size(), 3u);
  const auto full = bench_battery("battery");
  EXPECT_EQ(full.size(), 4u);
  for (const BenchScenario& s : full) {
    EXPECT_GT(s.topo.node_count(), 0u);
    EXPECT_GT(s.offered_load_bps, 0.0);
    EXPECT_GT(s.window, util::SimTime::zero());
  }
  EXPECT_THROW((void)bench_battery("nope"), std::invalid_argument);
}

TEST(MaskWallTimeTest, BlanksExactlyTheWallTimeFields) {
  // Every kBenchFields entry, in the writer's layout: a masked one blanks
  // (followed by a comma or by a newline), any other stays as it is.
  std::set<std::string> masked;
  for (const BenchField& f : kBenchFields) {
    const std::string leaf{f.path.substr(f.path.rfind('.') + 1)};
    const std::string doc = "{\n  \"" + leaf +
                            "\": 1.25,\n  \"events\": 42,\n  \"" + leaf +
                            "\": \"x\"\n}";
    if (!is_masked(f.cls)) {
      EXPECT_EQ(mask_wall_time_fields(doc), doc) << f.path;
      continue;
    }
    masked.insert(leaf);
    EXPECT_EQ(mask_wall_time_fields(doc),
              "{\n  \"" + leaf + "\": 0,\n  \"events\": 42,\n  \"" + leaf +
                  "\": 0\n}")
        << f.path;
  }
  // The golden file's contract: exactly these fields depend on the host or
  // the build.
  EXPECT_EQ(masked, (std::set<std::string>{
                        "elapsed_sec", "wall_sec", "build_sec", "spf_sec",
                        "events_per_sec", "ops_per_sec", "spf_nodes_per_sec",
                        "bytes_peak", "build_flavor"}));
}

TEST(BenchReportTest, SmokeBatteryValidatesAndMatchesGolden) {
  const BenchReport report = run_bench_battery("smoke", /*threads=*/1);
  ASSERT_EQ(report.cells.size(), 6u);  // 3 scenarios x {HN-SPF, D-SPF}

  const auto errors = report.validate();
  EXPECT_TRUE(errors.empty()) << "validation failed: " << errors.front();

  // The acceptance bar for the counters themselves: real full, incremental
  // AND skipped SPF work in every cell.
  for (const BenchCell& c : report.cells) {
    EXPECT_GT(c.counters.spf_full, 0u) << c.topology << "/" << c.metric;
    EXPECT_GT(c.counters.spf_incremental, 0u) << c.topology << "/" << c.metric;
    EXPECT_GT(c.counters.spf_skipped, 0u) << c.topology << "/" << c.metric;
    EXPECT_GT(c.events_per_sec(), 0.0) << c.topology << "/" << c.metric;
    // Schema v5: the stability section is live exactly where faults run.
    if (c.fault_spec.empty()) {
      EXPECT_EQ(c.stability_faults_applied, 0) << c.topology << "/" << c.metric;
    } else {
      EXPECT_GT(c.stability_faults_applied, 0) << c.topology << "/" << c.metric;
      EXPECT_GT(c.stability_route_changes, 0) << c.topology << "/" << c.metric;
    }
  }

  const std::string masked = mask_wall_time_fields(report.json());
  const std::string golden =
      read_file(std::string{GOLDEN_DIR} + "/bench_smoke.json");
  EXPECT_EQ(masked, golden)
      << "bench_report smoke output drifted from tests/golden/"
         "bench_smoke.json; if the change is intentional, regenerate the "
         "golden file";
}

TEST(BenchReportTest, MaskedJsonIsThreadCountIndependent) {
  const std::string one =
      mask_wall_time_fields(run_bench_battery("smoke", /*threads=*/1).json());
  const std::string four =
      mask_wall_time_fields(run_bench_battery("smoke", /*threads=*/4).json());
  EXPECT_EQ(one, four);
}

TEST(BenchReportTest, ValidateFlagsDeadCells) {
  BenchReport report;
  EXPECT_FALSE(report.validate().empty()) << "empty report must not validate";

  report.battery = "synthetic";
  BenchCell cell;
  cell.topology = "t";
  cell.metric = "m";
  report.cells.push_back(cell);  // all counters zero
  const auto errors = report.validate();
  EXPECT_GE(errors.size(), 4u);
}

TEST(BenchReportTest, ValidateAcceptsExactlyTheTableFlavors) {
  const auto flags_flavor = [](const std::string& flavor) {
    BenchReport report;
    report.cells.emplace_back();
    report.build_flavor = flavor;
    for (const std::string& e : report.validate()) {
      if (e.find("unknown build_flavor") != std::string::npos) return true;
    }
    return false;
  };
  for (const BuildFlavor& f : kBuildFlavors) {
    EXPECT_FALSE(flags_flavor(std::string{f.name})) << f.name;
  }
  EXPECT_FALSE(flags_flavor(std::string{bench_build_flavor()}));
  EXPECT_TRUE(flags_flavor("debug"));
  EXPECT_TRUE(flags_flavor(""));
  EXPECT_FALSE(find_build_flavor("sanitizer")->optimized);
}

}  // namespace
}  // namespace arpanet::obs
