#include "src/metrics/significance.h"

#include <gtest/gtest.h>

namespace arpanet::metrics {
namespace {

TEST(SignificanceTest, FirstCallAlwaysReports) {
  SignificanceFilter f{SignificanceFilter::fixed_config(14.0)};
  EXPECT_TRUE(f.should_report(30.0));
  EXPECT_DOUBLE_EQ(f.last_reported(), 30.0);
}

TEST(SignificanceTest, SmallChangesSuppressed) {
  SignificanceFilter f{SignificanceFilter::fixed_config(14.0)};
  (void)f.should_report(30.0);
  EXPECT_FALSE(f.should_report(35.0));
  EXPECT_FALSE(f.should_report(40.0));  // vs last *reported* (30), still < 14
  EXPECT_TRUE(f.should_report(44.0));   // 14 above 30
  EXPECT_DOUBLE_EQ(f.last_reported(), 44.0);
}

TEST(SignificanceTest, DownwardChangesAlsoCount) {
  SignificanceFilter f{SignificanceFilter::fixed_config(14.0)};
  (void)f.should_report(60.0);
  EXPECT_FALSE(f.should_report(50.0));
  EXPECT_TRUE(f.should_report(46.0));
}

/// "The maximum time between routing updates for each PSN is 50 seconds":
/// with 10 s periods, at most 5 quiet periods pass before a forced report.
TEST(SignificanceTest, ForcedReportAfterMaxQuietPeriods) {
  SignificanceFilter f{SignificanceFilter::fixed_config(1e30)};  // min-hop style
  (void)f.should_report(1.0);
  int quiet = 0;
  while (!f.should_report(1.0)) ++quiet;
  EXPECT_EQ(quiet, 4);  // reported on the 5th period
}

TEST(SignificanceTest, DspfThresholdDecaysUntilSatisfied) {
  SignificanceFilter f{SignificanceFilter::dspf_config()};  // 64, -12.8/period
  (void)f.should_report(10.0);
  // A persistent +20 change is below 64 but crosses the decaying threshold
  // (64 -> 51.2 -> 38.4 -> 25.6 -> 12.8) on the 4th quiet period's check.
  EXPECT_FALSE(f.should_report(30.0));  // threshold 64
  EXPECT_FALSE(f.should_report(30.0));  // 51.2
  EXPECT_FALSE(f.should_report(30.0));  // 38.4
  EXPECT_FALSE(f.should_report(30.0));  // 25.6
  EXPECT_TRUE(f.should_report(30.0));   // 12.8 <= 20
}

TEST(SignificanceTest, ThresholdResetsAfterReport) {
  SignificanceFilter f{SignificanceFilter::dspf_config()};
  (void)f.should_report(10.0);
  (void)f.should_report(30.0);  // decay once
  EXPECT_LT(f.working_threshold(), 64.0);
  (void)f.should_report(200.0);  // big change -> report, reset
  EXPECT_DOUBLE_EQ(f.working_threshold(), 64.0);
}

TEST(SignificanceTest, ForceReportSetsBaseline) {
  SignificanceFilter f{SignificanceFilter::fixed_config(14.0)};
  (void)f.should_report(30.0);
  f.force_report(44.0);
  EXPECT_DOUBLE_EQ(f.last_reported(), 44.0);
  EXPECT_FALSE(f.should_report(50.0));  // only 6 above the forced baseline
}

TEST(SignificanceTest, RejectsBadConfig) {
  EXPECT_THROW(SignificanceFilter(SignificanceFilter::Config{-1.0, 0.0, 5}),
               std::invalid_argument);
  EXPECT_THROW(SignificanceFilter(SignificanceFilter::Config{1.0, -0.5, 5}),
               std::invalid_argument);
  EXPECT_THROW(SignificanceFilter(SignificanceFilter::Config{1.0, 0.0, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::metrics

// Simulator-level: the ablation hook must actually replace the threshold.
#include "src/net/builders/registry.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

TEST(SignificanceOverrideTest, ZeroThresholdReportsEveryPeriod) {
  const net::Topology net87 = net::build_topology("arpanet87");
  auto run = [&](double override_value) {
    NetworkConfig cfg;
    cfg.metric = metrics::MetricKind::kHnSpf;
    cfg.significance_threshold_override = override_value;
    Network net{net87, cfg};
    net.add_traffic(traffic::TrafficMatrix::peak_hour(
        net87.node_count(), 400e3, util::Rng{4}));
    net.run_for(util::SimTime::from_sec(120));
    return net.stats().updates_originated;
  };
  const long always = run(0.0);
  const long shipped = run(-1.0);
  const long starved = run(100.0);
  // Threshold 0: one update per node per period (47 nodes x 12 periods).
  EXPECT_GT(always, 47 * 10);
  EXPECT_LT(shipped, always / 2);
  EXPECT_LE(starved, shipped);
}

}  // namespace
}  // namespace arpanet::sim
