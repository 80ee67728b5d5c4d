#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/mm1.h"
#include "src/metrics/delay_measurement.h"
#include "src/metrics/dspf_metric.h"
#include "src/metrics/hnspf_metric.h"
#include "src/metrics/make_metric.h"
#include "src/metrics/minhop_metric.h"

namespace arpanet::metrics {
namespace {

using util::DataRate;
using util::SimTime;

// ---- D-SPF ----

TEST(DspfMetricTest, BiasMatchesPaperValues) {
  // (10.7 + 2) / 6.4 -> 2 units for 56 kb/s; (62.5 + 2) / 6.4 -> 10 for 9.6.
  EXPECT_DOUBLE_EQ(DspfMetric(DataRate::kbps(56), SimTime::zero()).bias(), 2.0);
  EXPECT_DOUBLE_EQ(DspfMetric(DataRate::kbps(9.6), SimTime::zero()).bias(), 10.0);
}

TEST(DspfMetricTest, IdleLineReportsBias) {
  DspfMetric m{DataRate::kbps(56), SimTime::zero()};
  PeriodMeasurement idle;
  idle.avg_delay = SimTime::from_ms(5);  // below the bias floor
  EXPECT_DOUBLE_EQ(m.on_period(idle), m.bias());
}

TEST(DspfMetricTest, CostIsQuantizedDelay) {
  DspfMetric m{DataRate::kbps(56), SimTime::zero()};
  PeriodMeasurement meas;
  meas.avg_delay = SimTime::from_ms(64);  // 10 units
  EXPECT_DOUBLE_EQ(m.on_period(meas), 10.0);
}

TEST(DspfMetricTest, ClipsAt254) {
  DspfMetric m{DataRate::kbps(9.6), SimTime::zero()};
  PeriodMeasurement meas;
  meas.avg_delay = SimTime::from_sec(60);
  EXPECT_DOUBLE_EQ(m.on_period(meas), 254.0);
}

/// The paper's section 3.2 range complaint: a loaded 9.6 line can look 127x
/// worse than an idle 56 line.
TEST(DspfMetricTest, RangeRatioIs127) {
  DspfMetric slow{DataRate::kbps(9.6), SimTime::zero()};
  DspfMetric fast{DataRate::kbps(56), SimTime::zero()};
  PeriodMeasurement loaded;
  loaded.avg_delay = SimTime::from_sec(10);
  EXPECT_DOUBLE_EQ(slow.on_period(loaded) / fast.bias(), 127.0);
}

TEST(DspfMetricTest, ThresholdDecays) {
  const DspfMetric m{DataRate::kbps(56), SimTime::zero()};
  EXPECT_TRUE(m.threshold_decays());
  EXPECT_GT(m.change_threshold(), 0.0);
}

// ---- min-hop ----

TEST(MinHopMetricTest, ConstantCost) {
  MinHopMetric m;
  PeriodMeasurement loaded;
  loaded.avg_delay = SimTime::from_sec(10);
  EXPECT_DOUBLE_EQ(m.on_period(loaded), 1.0);
  EXPECT_DOUBLE_EQ(m.initial_cost(), 1.0);
  EXPECT_FALSE(m.threshold_decays());
}

// ---- HN-SPF adapter ----

TEST(HnSpfMetricTest, InitialCostIsMax) {
  const auto params = core::LineParamsTable::arpanet_defaults();
  HnSpfMetric m{params.for_type(net::LineType::kTerrestrial56),
                DataRate::kbps(56), SimTime::zero()};
  EXPECT_DOUBLE_EQ(m.initial_cost(), 90.0);
}

TEST(HnSpfMetricTest, PeriodUpdateUsesMeasuredDelay) {
  const auto params = core::LineParamsTable::arpanet_defaults();
  HnSpfMetric m{params.for_type(net::LineType::kTerrestrial56),
                DataRate::kbps(56), SimTime::zero()};
  PeriodMeasurement meas;
  meas.avg_delay = core::delay_from_utilization(0.9, DataRate::kbps(56),
                                                SimTime::zero());
  double cost = 0;
  for (int i = 0; i < 50; ++i) cost = m.on_period(meas);
  EXPECT_NEAR(cost, m.hnm().equilibrium_cost(0.9), 1e-9);
}

TEST(HnSpfMetricTest, ChangeThresholdIsLittleLessThanHalfHop) {
  const auto params = core::LineParamsTable::arpanet_defaults();
  HnSpfMetric m{params.for_type(net::LineType::kTerrestrial56),
                DataRate::kbps(56), SimTime::zero()};
  EXPECT_DOUBLE_EQ(m.change_threshold(), 14.0);
  EXPECT_FALSE(m.threshold_decays());
}

// ---- construction and cost bounds ----

TEST(MakeMetricTest, BuildsEachKind) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto l = t.add_duplex(a, b, net::LineType::kSatellite56);
  const auto params = core::LineParamsTable::arpanet_defaults();
  const auto& link = t.link(l);

  const auto minhop = make_metric(MetricKind::kMinHop, link, params);
  EXPECT_DOUBLE_EQ(minhop->initial_cost(), 1.0);

  const auto dspf = make_metric(MetricKind::kDspf, link, params);
  EXPECT_TRUE(dspf->threshold_decays());

  const auto hn = make_metric(MetricKind::kHnSpf, link, params);
  EXPECT_DOUBLE_EQ(hn->initial_cost(), 90.0);
}

TEST(InitialCostTest, EqualsABuiltMetricsInitialCost) {
  // The Network seeds every PSN's map from initial_cost without building a
  // metric per link; it must agree with the metric the PSN then runs, for
  // every kind and every line type in the default table, satellite lines
  // (whose propagation delay the D-SPF bias includes) among them.
  const auto params = core::LineParamsTable::arpanet_defaults();
  net::Topology t;
  std::vector<net::LinkId> links;
  for (int i = 0; i < net::kLineTypeCount; ++i) {
    const net::LineTypeInfo& type = net::all_line_types()[i];
    const auto a = t.add_node(std::string{type.name} + "-a");
    const auto b = t.add_node(std::string{type.name} + "-b");
    links.push_back(t.add_duplex(a, b, type.type));
  }
  int satellites = 0;
  for (const net::LinkId l : links) {
    const net::Link& link = t.link(l);
    satellites += net::info(link.type).satellite ? 1 : 0;
    for (const MetricKind kind :
         {MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf}) {
      EXPECT_EQ(initial_cost(kind, link, params),
                make_metric(kind, link, params)->initial_cost())
          << to_string(kind) << " on " << net::to_string(link.type);
    }
  }
  EXPECT_EQ(satellites, 2);
}

TEST(CostBoundsTest, MatchTheBuiltInMetricRanges) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto l = t.add_duplex(a, b, net::LineType::kTerrestrial56);
  const auto params = core::LineParamsTable::arpanet_defaults();
  const auto& link = t.link(l);

  const CostBounds minhop = cost_bounds(MetricKind::kMinHop, link, params);
  EXPECT_DOUBLE_EQ(minhop.min_cost, MinHopMetric{}.initial_cost());
  EXPECT_DOUBLE_EQ(minhop.max_cost, MinHopMetric{}.initial_cost());

  const CostBounds dspf = cost_bounds(MetricKind::kDspf, link, params);
  EXPECT_DOUBLE_EQ(dspf.min_cost,
                   (DspfMetric{link.rate, link.prop_delay}.bias()));
  EXPECT_DOUBLE_EQ(dspf.max_cost, DspfMetric::kMaxUnits);

  const CostBounds hnspf = cost_bounds(MetricKind::kHnSpf, link, params);
  const core::LineTypeParams& p = params.for_type(link.type);
  EXPECT_DOUBLE_EQ(hnspf.min_cost, p.min_cost(link.prop_delay));
  EXPECT_DOUBLE_EQ(hnspf.max_cost, p.max_cost);
  // Each kind's initial cost lies inside its own range.
  for (const MetricKind kind :
       {MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf}) {
    const CostBounds bounds = cost_bounds(kind, link, params);
    const double initial = make_metric(kind, link, params)->initial_cost();
    EXPECT_GE(initial, bounds.min_cost) << to_string(kind);
    EXPECT_LE(initial, bounds.max_cost) << to_string(kind);
  }
}

// ---- delay measurement ----

TEST(DelayMeasurementTest, AveragesPacketDelays) {
  DelayMeasurement meas{DataRate::kbps(56), SimTime::from_ms(10)};
  // Two packets: (queue 5 + tx 10) and (queue 15 + tx 10), prop 10 added to
  // each: delays 25 and 35, average 30.
  meas.record_packet(SimTime::from_ms(5), SimTime::from_ms(10));
  meas.record_packet(SimTime::from_ms(15), SimTime::from_ms(10));
  const PeriodMeasurement m = meas.end_period(SimTime::from_sec(10));
  EXPECT_EQ(m.packets, 2);
  EXPECT_NEAR(m.avg_delay.ms(), 30.0, 0.001);
  EXPECT_NEAR(m.busy_fraction, 0.002, 1e-6);  // 20 ms busy of 10 s
}

TEST(DelayMeasurementTest, IdlePeriodReportsFloor) {
  DelayMeasurement meas{DataRate::kbps(56), SimTime::from_ms(10)};
  const PeriodMeasurement m = meas.end_period(SimTime::from_sec(10));
  EXPECT_EQ(m.packets, 0);
  // Floor = one average transmission (10.714 ms) + propagation (10 ms).
  EXPECT_NEAR(m.avg_delay.ms(), 20.714, 0.01);
  EXPECT_DOUBLE_EQ(m.busy_fraction, 0.0);
}

TEST(DelayMeasurementTest, PeriodsAreIndependent) {
  DelayMeasurement meas{DataRate::kbps(56), SimTime::zero()};
  meas.record_packet(SimTime::from_ms(100), SimTime::from_ms(10));
  (void)meas.end_period(SimTime::from_sec(10));
  // Next period is fresh.
  const PeriodMeasurement m2 = meas.end_period(SimTime::from_sec(10));
  EXPECT_EQ(m2.packets, 0);
  EXPECT_DOUBLE_EQ(m2.busy_fraction, 0.0);
}

TEST(MetricKindTest, Names) {
  EXPECT_STREQ(to_string(MetricKind::kMinHop), "min-hop");
  EXPECT_STREQ(to_string(MetricKind::kDspf), "D-SPF");
  EXPECT_STREQ(to_string(MetricKind::kHnSpf), "HN-SPF");
}

}  // namespace
}  // namespace arpanet::metrics
