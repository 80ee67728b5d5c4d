#include <gtest/gtest.h>

#include <sstream>

#include "src/stats/histogram.h"
#include "src/stats/indicators.h"
#include "src/stats/summary.h"
#include "src/stats/time_series.h"

namespace arpanet::stats {
namespace {

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, EmptyIsSafe) {
  const Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h{0.0, 10.0, 10};
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamped into first bin
  h.add(100.0);  // clamped into last bin
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.bins()[0], 2);
  EXPECT_EQ(h.bins()[9], 2);
}

TEST(HistogramTest, Quantile) {
  Histogram h{0.0, 100.0, 100};
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(TimeSeriesTest, BucketsByTime) {
  TimeSeries ts{util::SimTime::from_sec(10)};
  ts.add(util::SimTime::from_sec(5), 1.0);
  ts.add(util::SimTime::from_sec(9), 2.0);
  ts.add(util::SimTime::from_sec(25), 4.0);
  EXPECT_EQ(ts.bucket_count(), 3u);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 3.0);
  EXPECT_DOUBLE_EQ(ts.bucket(1), 0.0);
  EXPECT_DOUBLE_EQ(ts.bucket(2), 4.0);
  EXPECT_DOUBLE_EQ(ts.bucket(99), 0.0);  // out of range reads as zero
  EXPECT_EQ(ts.bucket_start(2), util::SimTime::from_sec(20));
}

TEST(TimeSeriesTest, RejectsNegativeTimeAndZeroWidth) {
  EXPECT_THROW(TimeSeries(util::SimTime::zero()), std::invalid_argument);
  TimeSeries ts{util::SimTime::from_sec(1)};
  EXPECT_THROW(ts.add(util::SimTime::from_us(-1), 1.0), std::invalid_argument);
}

TEST(IndicatorsTest, PathRatio) {
  NetworkIndicators ind;
  ind.actual_path_hops = 4.91;
  ind.minimum_path_hops = 3.97;
  EXPECT_NEAR(ind.path_ratio(), 1.237, 0.001);
  ind.minimum_path_hops = 0.0;
  EXPECT_DOUBLE_EQ(ind.path_ratio(), 0.0);
}

TEST(IndicatorsTest, Table1PrintsAllRows) {
  NetworkIndicators before;
  before.label = "D-SPF";
  NetworkIndicators after;
  after.label = "HN-SPF";
  std::ostringstream os;
  print_table1(os, before, after);
  const std::string out = os.str();
  EXPECT_NE(out.find("Internode Traffic"), std::string::npos);
  EXPECT_NE(out.find("Round Trip Delay"), std::string::npos);
  EXPECT_NE(out.find("Path Ratio"), std::string::npos);
  EXPECT_NE(out.find("D-SPF"), std::string::npos);
  EXPECT_NE(out.find("HN-SPF"), std::string::npos);
}

}  // namespace
}  // namespace arpanet::stats
