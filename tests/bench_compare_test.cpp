// The benchmark trend checker (src/obs/bench_compare.h): schema gating,
// deterministic-work diffs, and the events_per_sec noise band.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/bench_compare.h"
#include "src/obs/bench_report.h"

namespace arpanet::obs {
namespace {

/// A minimal two-cell document in the real writer's shape. `rate` scales
/// both cells' events_per_sec; `events` sets the first cell's event count.
std::string doc(double rate, long events = 1000) {
  std::ostringstream os;
  os << R"({
  "schema": "arpanet-bench-metrics",
  "schema_version": )"
     << kBenchSchemaVersion << R"(,
  "battery": "smoke",
  "elapsed_sec": 1.5,
  "scenarios": [
    {
      "topology": "ring6",
      "metric": "HN-SPF",
      "spf": { "full": 6, "incremental": 120 },
      "packets": { "generated": 400, "delivered": 398 },
      "events": )"
     << events << R"(,
      "wall_sec": 0.5,
      "events_per_sec": )"
     << rate << R"(
    },
    {
      "topology": "ring6",
      "metric": "D-SPF",
      "spf": { "full": 6, "incremental": 95 },
      "packets": { "generated": 400, "delivered": 391 },
      "events": 900,
      "wall_sec": 0.4,
      "events_per_sec": )"
     << rate * 0.9 << R"(
    }
  ]
})";
  return os.str();
}

/// Like doc(), but with a one-cell "micro" array. `checksum` perturbs the
/// deterministic digest; `ops_rate` scales the micro throughput.
std::string micro_doc(double rate, double ops_rate,
                      std::uint64_t checksum = 42) {
  std::string d = doc(rate);
  std::ostringstream os;
  os << R"(,
  "micro": [
    {
      "name": "hold_near_future",
      "ops": 404096,
      "checksum": )"
     << checksum << R"(,
      "wall_sec": 0.1,
      "ops_per_sec": )"
     << ops_rate << R"(
    }
  ]
})";
  d.replace(d.rfind('}'), 1, os.str());
  return d;
}

TEST(BenchCompareTest, IdenticalDocumentsPass) {
  const CompareReport r = compare_bench_reports(doc(1e6), doc(1e6));
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_EQ(r.cells[0].topology, "ring6");
  EXPECT_EQ(r.cells[0].metric, "HN-SPF");
  EXPECT_DOUBLE_EQ(r.cells[0].ratio, 1.0);
}

TEST(BenchCompareTest, SlowdownWithinNoiseBandPasses) {
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport r = compare_bench_reports(doc(1e6), doc(0.95e6), opt);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
}

TEST(BenchCompareTest, SlowdownBeyondNoiseBandFails) {
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport r = compare_bench_reports(doc(1e6), doc(0.8e6), opt);
  EXPECT_FALSE(r.ok());
  // Both cells regressed by 20%.
  EXPECT_EQ(r.violations.size(), 2u);
  EXPECT_NE(r.violations[0].find("events_per_sec"), std::string::npos);
}

TEST(BenchCompareTest, SpeedupAlwaysPasses) {
  const CompareReport r = compare_bench_reports(doc(1e6), doc(2e6));
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.cells[0].ratio, 2.0);
}

TEST(BenchCompareTest, DeterministicWorkDriftFailsEvenWhenFaster) {
  // The event count changed: the simulation itself changed, which no noise
  // band excuses (work_noise defaults to exact).
  const CompareReport r =
      compare_bench_reports(doc(1e6, 1000), doc(2e6, 1001));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("events"), std::string::npos);
}

TEST(BenchCompareTest, WorkNoiseAllowsBoundedDrift) {
  CompareOptions opt;
  opt.work_noise = 0.01;
  const CompareReport r =
      compare_bench_reports(doc(1e6, 1000), doc(1e6, 1005), opt);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
}

TEST(BenchCompareTest, MaskedBaselineSkipsTheRateCheck) {
  // A golden-style masked baseline has events_per_sec 0. Wall-derived
  // fields are excluded from the work diff, so the comparison passes on the
  // deterministic fields alone and the rate ratio is marked unavailable.
  const CompareReport r = compare_bench_reports(doc(0.0), doc(5e6));
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(r.cells[0].ratio, 0.0);
}

/// doc(1e6) stamped with a build flavor and an alloc_guard block on its
/// first cell.
std::string flavored_doc(const std::string& flavor, long bytes_peak) {
  std::string d = doc(1e6);
  d.insert(d.find(R"("elapsed_sec")"),
           R"("build_flavor": ")" + flavor + "\",\n  ");
  d.insert(d.find(R"("events": )"),
           R"("alloc_guard": { "bytes_peak": )" + std::to_string(bytes_peak) +
               " },\n      ");
  return d;
}

TEST(BenchCompareTest, BytesPeakDiffsExactlyBetweenOptimizedBuilds) {
  // The window of a plain or LTO build allocates nothing: a leak there is a
  // work drift, whichever of the two flavors each side came from.
  EXPECT_TRUE(compare_bench_reports(flavored_doc("plain", 0),
                                    flavored_doc("lto", 0))
                  .ok());
  const CompareReport r = compare_bench_reports(flavored_doc("plain", 0),
                                                flavored_doc("lto", 184));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("alloc_guard.bytes_peak 0 -> 184"),
            std::string::npos)
      << r.violations[0];
}

TEST(BenchCompareTest, BytesPeakIsSkippedUnlessBothFlavorsAreOptimized) {
  // A masked document's flavor is 0; its bytes_peak says nothing about the
  // other side's build.
  std::string masked = flavored_doc("plain", 0);
  masked.replace(masked.find(R"("plain")"), 7, "0");
  const CompareReport r =
      compare_bench_reports(masked, flavored_doc("plain", 184));
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
}

TEST(BenchCompareTest, BatteryMismatchIsAViolation) {
  std::string other = doc(1e6);
  other.replace(other.find("\"smoke\""), 7, "\"battery\"");
  const CompareReport r = compare_bench_reports(doc(1e6), other);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("battery"), std::string::npos);
}

TEST(BenchCompareTest, WrongSchemaThrows) {
  std::string bad = doc(1e6);
  bad.replace(bad.find("arpanet-bench-metrics"), 21, "some-other-document42");
  EXPECT_THROW((void)compare_bench_reports(bad, doc(1e6)),
               std::invalid_argument);
  EXPECT_THROW((void)compare_bench_reports(doc(1e6), "{ not json"),
               std::invalid_argument);
}

TEST(BenchCompareTest, CellSetMismatchIsAViolation) {
  std::string fewer = doc(1e6);
  // Drop the second scenario object entirely.
  const std::size_t cut = fewer.rfind("    {");
  const std::size_t end = fewer.rfind("    }");
  fewer.erase(cut - 2, end + 6 - (cut - 2));  // also removes the comma
  const CompareReport r = compare_bench_reports(doc(1e6), fewer);
  EXPECT_FALSE(r.ok());
}

TEST(BenchCompareTest, RealSmokeBatteryComparesCleanAgainstItself) {
  const std::string json = run_bench_battery("smoke", /*threads=*/1).json();
  CompareOptions opt;
  // Same machine, seconds apart — but ctest runs test binaries concurrently,
  // so the band is wide. The deterministic work fields still compare
  // exactly.
  opt.rate_noise = 0.9;
  const std::string again = run_bench_battery("smoke", /*threads=*/1).json();
  const CompareReport r = compare_bench_reports(json, again, opt);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_EQ(r.cells.size(), 6u);  // 3 scenarios x 2 metrics
  for (const CellDelta& d : r.cells) EXPECT_GT(d.ratio, 0.0);
  EXPECT_EQ(r.micro.size(), 2u);  // hold_near_future + hold_wide_span
  for (const CellDelta& d : r.micro) EXPECT_GT(d.ratio, 0.0);
  EXPECT_EQ(r.topo.size(), 5u);  // one per generated family
  for (const CellDelta& d : r.topo) EXPECT_GT(d.ratio, 0.0);
}

TEST(BenchCompareTest, TextReportNamesEveryCellAndViolation) {
  const CompareReport r = compare_bench_reports(doc(1e6), doc(0.5e6));
  std::ostringstream os;
  r.write_text(os);
  EXPECT_NE(os.str().find("ring6/HN-SPF"), std::string::npos);
  EXPECT_NE(os.str().find("VIOLATION"), std::string::npos);
}

TEST(BenchCompareTest, MicroCellsCompareRatesWithinNoise) {
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport ok =
      compare_bench_reports(micro_doc(1e6, 4e6), micro_doc(1e6, 3.8e6), opt);
  EXPECT_TRUE(ok.ok()) << (ok.violations.empty() ? "" : ok.violations.front());
  ASSERT_EQ(ok.micro.size(), 1u);
  EXPECT_EQ(ok.micro[0].topology, "hold_near_future");

  const CompareReport slow =
      compare_bench_reports(micro_doc(1e6, 4e6), micro_doc(1e6, 3e6), opt);
  EXPECT_FALSE(slow.ok());
  EXPECT_NE(slow.violations[0].find("ops_per_sec"), std::string::npos);
}

TEST(BenchCompareTest, MicroChecksumDriftIsAViolation) {
  // A changed pop-order digest means the queue's total order changed — no
  // rate noise excuses that.
  const CompareReport r =
      compare_bench_reports(micro_doc(1e6, 4e6, /*checksum=*/42),
                            micro_doc(1e6, 8e6, /*checksum=*/43));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("micro hold_near_future"), std::string::npos);
}

TEST(BenchCompareTest, MicroCellCountMismatchIsAViolation) {
  const CompareReport r =
      compare_bench_reports(micro_doc(1e6, 4e6), doc(1e6));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("micro cell count"), std::string::npos);
}

TEST(BenchCompareTest, RatesFromArtifactAnchorsTheNoiseBand) {
  // Committed baseline was measured on a faster machine (2e6); the rolling
  // artifact from this machine says 1e6. Current at 0.95e6 is within 10% of
  // the artifact but 52% below the committed baseline: rolling mode passes.
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const std::string committed = micro_doc(2e6, 8e6);
  const std::string previous = micro_doc(1e6, 4e6);
  const std::string current = micro_doc(0.95e6, 3.9e6);
  const CompareReport strict = compare_bench_reports(committed, current, opt);
  EXPECT_FALSE(strict.ok());
  const CompareReport rolling =
      compare_bench_reports(committed, current, previous, opt);
  EXPECT_TRUE(rolling.ok())
      << (rolling.violations.empty() ? "" : rolling.violations.front());
  ASSERT_EQ(rolling.cells.size(), 2u);
  EXPECT_TRUE(rolling.cells[0].rate_from_artifact);
  EXPECT_DOUBLE_EQ(rolling.cells[0].baseline_events_per_sec, 1e6);
  ASSERT_EQ(rolling.micro.size(), 1u);
  EXPECT_TRUE(rolling.micro[0].rate_from_artifact);
  std::ostringstream os;
  rolling.write_text(os);
  EXPECT_NE(os.str().find("[rolling]"), std::string::npos);
}

TEST(BenchCompareTest, RatesFromFallsBackWhenTheArtifactLacksACell) {
  // A rates artifact whose cells do not match (different topology names)
  // contributes nothing; every rate anchors to the committed baseline.
  std::string foreign = micro_doc(9e6, 9e6);
  std::size_t at;
  while ((at = foreign.find("ring6")) != std::string::npos) {
    foreign.replace(at, 5, "gridX");
  }
  while ((at = foreign.find("hold_near_future")) != std::string::npos) {
    foreign.replace(at, 16, "something_else99");
  }
  const CompareReport r = compare_bench_reports(
      micro_doc(1e6, 4e6), micro_doc(1e6, 4e6), foreign);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  for (const CellDelta& d : r.cells) {
    EXPECT_FALSE(d.rate_from_artifact);
    EXPECT_DOUBLE_EQ(d.ratio, 1.0);
  }
  ASSERT_EQ(r.micro.size(), 1u);
  EXPECT_FALSE(r.micro[0].rate_from_artifact);
}

TEST(BenchCompareTest, UnparsableRatesDocumentThrows) {
  EXPECT_THROW((void)compare_bench_reports(micro_doc(1e6, 4e6),
                                           micro_doc(1e6, 4e6), "{ not json"),
               std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::obs
