// The benchmark trend checker (src/obs/bench_compare.h): schema gating,
// deterministic-work diffs, and the throughput noise band, for every cell
// section.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/obs/bench_compare.h"
#include "src/obs/bench_report.h"
#include "src/obs/json_export.h"

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

/// What micro_doc() varies in its micro and topo cells.
struct Knobs {
  std::uint64_t ops = 404096;
  std::uint64_t checksum = 42;
  int micro_cells = 1;  ///< copies of the micro cell
  double spf_rate = 2e6;
  std::uint64_t graph_checksum = 7;
};

/// Like doc(), but with a "micro" array (`ops_rate` scales its throughput)
/// and a one-cell "topo" array.
std::string micro_doc(double rate, double ops_rate, const Knobs& k = {}) {
  std::string d = doc(rate);
  std::ostringstream os;
  os << R"(,
  "micro": [)";
  for (int i = 0; i < k.micro_cells; ++i) {
    os << (i > 0 ? "," : "") << R"(
    {
      "name": "hold_near_future",
      "ops": )"
       << k.ops << R"(,
      "checksum": )"
       << k.checksum << R"(,
      "wall_sec": 0.1,
      "ops_per_sec": )"
       << ops_rate << R"(
    })";
  }
  os << R"(
  ],
  "topo": [
    {
      "name": "ba-n1000-s1987-m2",
      "family": "ba",
      "graph_checksum": )"
     << k.graph_checksum << R"(,
      "spf_roots": 4,
      "spf_checksum": 11,
      "nodes_touched": 300,
      "build_sec": 0.01,
      "spf_sec": 0.002,
      "spf_nodes_per_sec": )"
     << k.spf_rate << R"(
    }
  ]
})";
  d.replace(d.rfind('}'), 1, os.str());
  return d;
}

/// The report's cells of one section.
std::vector<CellDelta> section(const CompareReport& r, const std::string& key) {
  std::vector<CellDelta> out;
  for (const CellDelta& d : r.cells) {
    if (d.section == key) out.push_back(d);
  }
  return out;
}

std::string first_violation(const CompareReport& r) {
  return r.violations.empty() ? "" : r.violations.front();
}

TEST(BenchCompareTest, IdenticalDocumentsPass) {
  const CompareReport r = compare_bench_reports(doc(1e6), doc(1e6));
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_EQ(r.cells[0].section, "scenarios");
  EXPECT_EQ(r.cells[0].name, "ring6/HN-SPF");
  EXPECT_DOUBLE_EQ(r.cells[0].ratio, 1.0);
}

TEST(BenchCompareTest, SlowdownWithinNoiseBandPasses) {
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport r = compare_bench_reports(doc(1e6), doc(0.95e6), opt);
  EXPECT_TRUE(r.ok()) << first_violation(r);
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
  EXPECT_TRUE(r.ok()) << first_violation(r);
  // The band holds for a count in any section: a micro cell's ops as much
  // as a scenario's events.
  opt.work_noise = 0.5;
  const CompareReport micro = compare_bench_reports(
      micro_doc(1e6, 4e6, {.ops = 1000}), micro_doc(1e6, 4e6, {.ops = 1001}),
      opt);
  EXPECT_TRUE(micro.ok()) << first_violation(micro);
  const CompareReport beyond = compare_bench_reports(
      micro_doc(1e6, 4e6, {.ops = 1000}), micro_doc(1e6, 4e6, {.ops = 1600}),
      opt);
  ASSERT_EQ(beyond.violations.size(), 1u);
  EXPECT_NE(beyond.violations[0].find("micro hold_near_future"),
            std::string::npos);
}

TEST(BenchCompareTest, MaskedBaselineSkipsTheRateCheck) {
  // A golden-style masked baseline has events_per_sec 0. Wall-derived
  // fields are excluded from the work diff, so the comparison passes on the
  // deterministic fields alone and the rate ratio is marked unavailable.
  const CompareReport r = compare_bench_reports(doc(0.0), doc(5e6));
  EXPECT_TRUE(r.ok()) << first_violation(r);
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
  EXPECT_TRUE(r.ok()) << first_violation(r);
  // A sanitizer runtime allocates inside the window: skipped by its name.
  const CompareReport san = compare_bench_reports(
      flavored_doc("sanitizer", 0), flavored_doc("sanitizer", 184));
  EXPECT_TRUE(san.ok()) << first_violation(san);
  const CompareReport mixed = compare_bench_reports(
      flavored_doc("plain", 0), flavored_doc("sanitizer", 184));
  EXPECT_TRUE(mixed.ok()) << first_violation(mixed);
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
  EXPECT_TRUE(r.ok()) << first_violation(r);
  EXPECT_EQ(section(r, "scenarios").size(), 6u);  // 3 scenarios x 2 metrics
  EXPECT_EQ(section(r, "micro").size(), 2u);  // near future + wide span
  EXPECT_EQ(section(r, "topo").size(), 5u);   // one per generated family
  EXPECT_EQ(r.cells.size(), 13u);
  for (const CellDelta& d : r.cells) EXPECT_GT(d.ratio, 0.0) << d.name;
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
  EXPECT_TRUE(ok.ok()) << first_violation(ok);
  ASSERT_EQ(section(ok, "micro").size(), 1u);
  EXPECT_EQ(section(ok, "micro")[0].name, "hold_near_future");

  const CompareReport slow =
      compare_bench_reports(micro_doc(1e6, 4e6), micro_doc(1e6, 3e6), opt);
  EXPECT_FALSE(slow.ok());
  EXPECT_NE(slow.violations[0].find("ops_per_sec"), std::string::npos);
}

TEST(BenchCompareTest, MicroChecksumDriftIsAViolation) {
  // A changed pop-order digest means the queue's total order changed — no
  // rate noise excuses that.
  const CompareReport r =
      compare_bench_reports(micro_doc(1e6, 4e6, {.checksum = 42}),
                            micro_doc(1e6, 8e6, {.checksum = 43}));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("micro hold_near_future"), std::string::npos);
}

TEST(BenchCompareTest, MicroCellCountMismatchIsAViolation) {
  const CompareReport r =
      compare_bench_reports(micro_doc(1e6, 4e6), doc(1e6));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.violations[0].find("micro cell count"), std::string::npos);
  // Each section reports its own mismatch: the micro one must not hide
  // drift in the topo section.
  const CompareReport both = compare_bench_reports(
      micro_doc(1e6, 4e6, {.micro_cells = 1, .graph_checksum = 7}),
      micro_doc(1e6, 4e6, {.micro_cells = 2, .graph_checksum = 99}));
  ASSERT_EQ(both.violations.size(), 2u);
  EXPECT_EQ(both.violations[0],
            "micro cell count mismatch: baseline 1 vs current 2");
  EXPECT_NE(both.violations[1].find("topo ba-n1000-s1987-m2"),
            std::string::npos)
      << both.violations[1];
  EXPECT_EQ(section(both, "topo").size(), 1u);
}

TEST(BenchCompareTest, RatesFromArtifactAnchorsTheNoiseBand) {
  // Committed baseline was measured on a faster machine (2e6); the rolling
  // artifact from this machine says 1e6. Current at 0.95e6 is within 10% of
  // the artifact but 52% below the committed baseline: rolling mode passes.
  // The topo cell's SPF rate follows the same anchor.
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const std::string committed = micro_doc(2e6, 8e6, {.spf_rate = 4e6});
  const std::string previous = micro_doc(1e6, 4e6, {.spf_rate = 2e6});
  const std::string current = micro_doc(0.95e6, 3.9e6, {.spf_rate = 1.9e6});
  const CompareReport strict = compare_bench_reports(committed, current, opt);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.violations.size(), 4u);  // both scenarios, micro, topo
  const CompareReport rolling =
      compare_bench_reports(committed, current, opt, previous);
  EXPECT_TRUE(rolling.ok()) << first_violation(rolling);
  ASSERT_EQ(rolling.cells.size(), 4u);
  for (const CellDelta& d : rolling.cells) {
    EXPECT_TRUE(d.rate_from_artifact) << d.name;
  }
  EXPECT_DOUBLE_EQ(rolling.cells[0].baseline_rate, 1e6);
  ASSERT_EQ(section(rolling, "topo").size(), 1u);
  EXPECT_DOUBLE_EQ(section(rolling, "topo")[0].baseline_rate, 2e6);
  EXPECT_DOUBLE_EQ(section(rolling, "topo")[0].ratio, 0.95);
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
  foreign.replace(foreign.find("ba-n1000"), 8, "ba-n9999");
  const CompareReport r = compare_bench_reports(
      micro_doc(1e6, 4e6), micro_doc(1e6, 4e6), {}, foreign);
  EXPECT_TRUE(r.ok()) << first_violation(r);
  ASSERT_EQ(r.cells.size(), 4u);
  for (const CellDelta& d : r.cells) {
    EXPECT_FALSE(d.rate_from_artifact) << d.name;
    EXPECT_DOUBLE_EQ(d.ratio, 1.0) << d.name;
  }
}

TEST(BenchCompareTest, UnparsableRatesDocumentThrows) {
  EXPECT_THROW((void)compare_bench_reports(micro_doc(1e6, 4e6),
                                           micro_doc(1e6, 4e6), {},
                                           "{ not json"),
               std::invalid_argument);
}

TEST(BenchCompareTest, DigestDriftFailsWhateverTheWorkNoise) {
  // A checksum is a digest, not a count: one bit of drift is a different
  // pop order or graph, however wide --work-noise is.
  CompareOptions opt;
  opt.work_noise = 0.5;
  const CompareReport micro = compare_bench_reports(
      micro_doc(1e6, 4e6, {.checksum = 42}),
      micro_doc(1e6, 4e6, {.checksum = 43}), opt);
  ASSERT_EQ(micro.violations.size(), 1u);
  EXPECT_NE(micro.violations[0].find("micro hold_near_future"),
            std::string::npos);
  const CompareReport topo = compare_bench_reports(
      micro_doc(1e6, 4e6, {.graph_checksum = 7}),
      micro_doc(1e6, 4e6, {.graph_checksum = 8}), opt);
  ASSERT_EQ(topo.violations.size(), 1u);
  EXPECT_NE(topo.violations[0].find("topo ba-n1000-s1987-m2"),
            std::string::npos)
      << topo.violations[0];
  // All 64 bits count, beyond what a double holds.
  const CompareReport low_bit = compare_bench_reports(
      micro_doc(1e6, 4e6, {.checksum = 18446744073709551615ULL}),
      micro_doc(1e6, 4e6, {.checksum = 18446744073709551614ULL}));
  EXPECT_FALSE(low_bit.ok());
}

TEST(BenchCompareTest, TopoCellsCompareSpfRateWithinNoise) {
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport ok = compare_bench_reports(
      micro_doc(1e6, 4e6, {.spf_rate = 2e6}),
      micro_doc(1e6, 4e6, {.spf_rate = 1.9e6}), opt);
  EXPECT_TRUE(ok.ok()) << first_violation(ok);
  const CompareReport slow = compare_bench_reports(
      micro_doc(1e6, 4e6, {.spf_rate = 2e6}),
      micro_doc(1e6, 4e6, {.spf_rate = 1.5e6}), opt);
  ASSERT_EQ(slow.violations.size(), 1u);
  EXPECT_EQ(slow.violations[0],
            "topo ba-n1000-s1987-m2: spf_nodes_per_sec 2000000 -> 1500000 "
            "(0.75x, below the 0.9 floor)");
  std::ostringstream os;
  slow.write_text(os);
  EXPECT_NE(os.str().find("topo ba-n1000-s1987-m2: 2000000 -> 1500000 "
                          "spf-nodes/s (0.75x)"),
            std::string::npos)
      << os.str();
}

TEST(BenchCompareTest, WallTimeAndRateFieldsNeverCountAsWork) {
  // Every wall-time and rate field of every section moves by 5%, inside
  // the 10% band: nothing may flag, least of all as work drift.
  const std::string base = micro_doc(1e6, 4e6);
  std::string cur = base;
  for (const BenchField& f : kBenchFields) {
    if (f.cls != FieldClass::kWallTime && f.cls != FieldClass::kRate) continue;
    const std::string key = "\"" + std::string{f.path} + "\": ";
    std::size_t at = cur.find(key);
    ASSERT_NE(at, std::string::npos) << f.path << " is not in the fixture";
    for (; at != std::string::npos; at = cur.find(key, at)) {
      at += key.size();
      const std::size_t end = cur.find_first_of(",\n", at);
      const double v = std::stod(cur.substr(at, end - at));
      const double scale = f.cls == FieldClass::kRate ? 0.95 : 1.05;
      cur.replace(at, end - at, json_double(v * scale));
    }
  }
  CompareOptions opt;
  opt.rate_noise = 0.10;
  const CompareReport r = compare_bench_reports(base, cur, opt);
  EXPECT_TRUE(r.ok()) << first_violation(r);
  ASSERT_EQ(r.cells.size(), 4u);
  for (const CellDelta& d : r.cells) EXPECT_DOUBLE_EQ(d.ratio, 0.95) << d.name;
}

}  // namespace
}  // namespace arpanet::obs
