#include <gtest/gtest.h>

#include <string>

#include "src/core/line_params.h"
#include "src/core/mm1.h"
#include "src/metrics/delay_measurement.h"
#include "src/metrics/dspf_metric.h"
#include "src/metrics/link_metric.h"
#include "src/net/line_type.h"

namespace arpanet::metrics {
namespace {

using util::DataRate;
using util::SimTime;

const core::LineParamsTable kParams = core::LineParamsTable::arpanet_defaults();
constexpr MetricKind kKinds[] = {MetricKind::kMinHop, MetricKind::kDspf,
                                 MetricKind::kHnSpf};

/// A simplex line of `type` at its tabled rate.
net::Link line(net::LineType type, SimTime prop_delay = SimTime::zero()) {
  net::Link link;
  link.type = type;
  link.rate = net::info(type).rate;
  link.prop_delay = prop_delay;
  return link;
}

LinkMetric metric(MetricKind kind, net::LineType type) {
  return LinkMetric{kind, line(type), kParams};
}

PeriodMeasurement delay_of(SimTime delay) {
  PeriodMeasurement m;
  m.avg_delay = delay;
  return m;
}

// ---- D-SPF ----

TEST(DspfMetricTest, BiasMatchesPaperValues) {
  // (10.7 + 2) / 6.4 -> 2 units for 56 kb/s; (62.5 + 2) / 6.4 -> 10 for 9.6.
  EXPECT_DOUBLE_EQ(DspfMetric{DataRate::kbps(56)}.bias(), 2.0);
  EXPECT_DOUBLE_EQ(DspfMetric{DataRate::kbps(9.6)}.bias(), 10.0);
}

TEST(DspfMetricTest, IdleLineReportsBias) {
  LinkMetric m = metric(MetricKind::kDspf, net::LineType::kTerrestrial56);
  // 5 ms is below the bias floor.
  EXPECT_DOUBLE_EQ(m.on_period(delay_of(SimTime::from_ms(5))), 2.0);
  EXPECT_DOUBLE_EQ(m.initial_cost(), 2.0);
}

TEST(DspfMetricTest, CostIsQuantizedDelay) {
  LinkMetric m = metric(MetricKind::kDspf, net::LineType::kTerrestrial56);
  EXPECT_DOUBLE_EQ(m.on_period(delay_of(SimTime::from_ms(64))), 10.0);
}

TEST(DspfMetricTest, ClipsAt254) {
  LinkMetric m = metric(MetricKind::kDspf, net::LineType::kTerrestrial9_6);
  EXPECT_DOUBLE_EQ(m.on_period(delay_of(SimTime::from_sec(60))), 254.0);
}

/// The paper's section 3.2 range complaint: a loaded 9.6 line can look 127x
/// worse than an idle 56 line.
TEST(DspfMetricTest, RangeRatioIs127) {
  LinkMetric slow = metric(MetricKind::kDspf, net::LineType::kTerrestrial9_6);
  const LinkMetric fast =
      metric(MetricKind::kDspf, net::LineType::kTerrestrial56);
  EXPECT_DOUBLE_EQ(
      slow.on_period(delay_of(SimTime::from_sec(10))) / fast.initial_cost(),
      127.0);
}

TEST(DspfMetricTest, ThresholdDecays) {
  const SignificanceFilter::Config cfg =
      metric(MetricKind::kDspf, net::LineType::kTerrestrial56)
          .significance(-1.0);
  EXPECT_GT(cfg.threshold, 0.0);
  EXPECT_GT(cfg.decay_per_period, 0.0);
}

// ---- min-hop ----

TEST(MinHopMetricTest, ConstantCost) {
  LinkMetric m = metric(MetricKind::kMinHop, net::LineType::kTerrestrial9_6);
  EXPECT_DOUBLE_EQ(m.on_period(delay_of(SimTime::from_sec(10))), 1.0);
  EXPECT_DOUBLE_EQ(m.initial_cost(), 1.0);
  EXPECT_DOUBLE_EQ(m.equilibrium_cost(1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.significance(-1.0).decay_per_period, 0.0);
}

// ---- HN-SPF ----

TEST(HnSpfMetricTest, InitialCostIsMax) {
  EXPECT_DOUBLE_EQ(
      metric(MetricKind::kHnSpf, net::LineType::kTerrestrial56).initial_cost(),
      90.0);
}

TEST(HnSpfMetricTest, PeriodUpdateUsesMeasuredDelay) {
  LinkMetric m = metric(MetricKind::kHnSpf, net::LineType::kTerrestrial56);
  const PeriodMeasurement meas = delay_of(core::delay_from_utilization(
      0.9, DataRate::kbps(56), SimTime::zero()));
  double cost = 0;
  for (int i = 0; i < 50; ++i) cost = m.on_period(meas);
  EXPECT_NEAR(cost, m.equilibrium_cost(0.9), 1e-9);
}

TEST(HnSpfMetricTest, ChangeThresholdIsLittleLessThanHalfHop) {
  const SignificanceFilter::Config cfg =
      metric(MetricKind::kHnSpf, net::LineType::kTerrestrial56)
          .significance(-1.0);
  EXPECT_DOUBLE_EQ(cfg.threshold, 14.0);
  EXPECT_DOUBLE_EQ(cfg.decay_per_period, 0.0);
}

// ---- the value type ----

TEST(LinkMetricTest, BuildsEachKind) {
  const net::Link link = line(net::LineType::kSatellite56);
  for (const MetricKind kind : kKinds) {
    EXPECT_EQ(LinkMetric(kind, link, kParams).kind(), kind) << to_string(kind);
  }
  EXPECT_DOUBLE_EQ(
      LinkMetric(MetricKind::kMinHop, link, kParams).initial_cost(), 1.0);
  EXPECT_DOUBLE_EQ(
      LinkMetric(MetricKind::kHnSpf, link, kParams).initial_cost(), 90.0);
}

TEST(LinkMetricTest, CopiesEvolveIndependently) {
  LinkMetric a = metric(MetricKind::kHnSpf, net::LineType::kTerrestrial56);
  LinkMetric copy = a;
  const PeriodMeasurement idle = delay_of(SimTime::zero());
  const double first = a.on_period(idle);
  EXPECT_LT(first, a.initial_cost());  // eased in by the down limit
  // The copy still holds the state `a` had when it was copied.
  EXPECT_DOUBLE_EQ(copy.on_period(idle), first);
  EXPECT_LT(a.on_period(idle), first);
}

TEST(LinkMetricTest, ThresholdOverrideFixesEveryKindsThreshold) {
  for (const MetricKind kind : kKinds) {
    const SignificanceFilter::Config cfg =
        metric(kind, net::LineType::kTerrestrial56).significance(7.0);
    EXPECT_DOUBLE_EQ(cfg.threshold, 7.0) << to_string(kind);
    EXPECT_DOUBLE_EQ(cfg.decay_per_period, 0.0) << to_string(kind);
  }
}

TEST(CostBoundsTest, MatchTheBuiltInMetricRanges) {
  const net::Link link = line(net::LineType::kTerrestrial56);
  const CostBounds minhop =
      LinkMetric{MetricKind::kMinHop, link, kParams}.bounds();
  EXPECT_DOUBLE_EQ(minhop.min_cost, LinkMetric::kHopCost);
  EXPECT_DOUBLE_EQ(minhop.max_cost, LinkMetric::kHopCost);

  const CostBounds dspf = LinkMetric{MetricKind::kDspf, link, kParams}.bounds();
  EXPECT_DOUBLE_EQ(dspf.min_cost, DspfMetric{link.rate}.bias());
  EXPECT_DOUBLE_EQ(dspf.max_cost, DspfMetric::kMaxUnits);

  const CostBounds hnspf =
      LinkMetric{MetricKind::kHnSpf, link, kParams}.bounds();
  const core::LineTypeParams& p = kParams.for_type(link.type);
  EXPECT_DOUBLE_EQ(hnspf.min_cost, p.min_cost(link.prop_delay));
  EXPECT_DOUBLE_EQ(hnspf.max_cost, p.max_cost);

  // On every line type in the default table, satellite lines (whose
  // propagation delay raises HN-SPF's minimum) among them, each kind
  // starts at an end of its own range: D-SPF at its bias, HN-SPF (which
  // eases new lines in) and min-hop at the top.
  int satellites = 0;
  for (int i = 0; i < net::kLineTypeCount; ++i) {
    const net::LineTypeInfo& type = net::all_line_types()[i];
    satellites += type.satellite ? 1 : 0;
    const net::Link l = line(type.type, type.default_prop_delay);
    for (const MetricKind kind : kKinds) {
      const LinkMetric m{kind, l, kParams};
      const CostBounds bounds = m.bounds();
      EXPECT_DOUBLE_EQ(m.initial_cost(), kind == MetricKind::kDspf
                                             ? bounds.min_cost
                                             : bounds.max_cost)
          << to_string(kind) << " on " << type.name;
    }
  }
  EXPECT_EQ(satellites, 2);
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
