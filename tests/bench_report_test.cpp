// tools/bench_report's engine (src/obs/bench_report.h): the smoke battery
// must validate, produce byte-identical masked JSON at any sweep thread
// count, and match the checked-in golden file tests/golden/bench_smoke.json
// (regenerate with: bench_report --scenario=smoke --threads=1 --mask
// --out=tests/golden/bench_smoke.json — or copy the diff this test prints).

#include <gtest/gtest.h>

#include <fstream>
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
  const std::string doc =
      "{\n"
      "  \"elapsed_sec\": 1.25,\n"
      "  \"wall_sec\": 0.5,\n"
      "  \"events_per_sec\": 123456.7,\n"
      "  \"events\": 42\n"
      "}";
  EXPECT_EQ(mask_wall_time_fields(doc),
            "{\n"
            "  \"elapsed_sec\": 0,\n"
            "  \"wall_sec\": 0,\n"
            "  \"events_per_sec\": 0,\n"
            "  \"events\": 42\n"
            "}");
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

}  // namespace
}  // namespace arpanet::obs
