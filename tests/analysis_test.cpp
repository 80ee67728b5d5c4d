#include <gtest/gtest.h>

#include "src/analysis/dynamic_trace.h"
#include "src/analysis/equilibrium.h"
#include "src/analysis/metric_map.h"
#include "src/analysis/response_map.h"
#include "src/analysis/shed_cost.h"
#include "src/net/builders/registry.h"

namespace arpanet::analysis {
namespace {

using metrics::MetricKind;
using net::LineType;

const core::LineParamsTable kParams = core::LineParamsTable::arpanet_defaults();

// ---- metric maps ----

TEST(MetricMapTest, HopUnits) {
  const MetricMap hn{MetricKind::kHnSpf, LineType::kTerrestrial56, kParams,
                     util::SimTime::zero()};
  const MetricMap dspf{MetricKind::kDspf, LineType::kTerrestrial56, kParams,
                       util::SimTime::zero()};
  EXPECT_DOUBLE_EQ(hn.hop_unit(), 30.0);
  EXPECT_DOUBLE_EQ(dspf.hop_unit(), 2.0);
}

TEST(MetricMapTest, NormalizedAnchors) {
  const MetricMap hn{MetricKind::kHnSpf, LineType::kTerrestrial56, kParams,
                     util::SimTime::zero()};
  EXPECT_DOUBLE_EQ(hn.normalized_cost(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hn.normalized_cost(0.5), 1.0);
  EXPECT_DOUBLE_EQ(hn.normalized_cost(1.0), 3.0);
  const MetricMap dspf{MetricKind::kDspf, LineType::kTerrestrial56, kParams,
                       util::SimTime::zero()};
  EXPECT_DOUBLE_EQ(dspf.normalized_cost(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dspf.normalized_cost(1.0), 127.0);
  const MetricMap mh{MetricKind::kMinHop, LineType::kTerrestrial56, kParams,
                     util::SimTime::zero()};
  EXPECT_DOUBLE_EQ(mh.normalized_cost(0.0), 1.0);
  EXPECT_DOUBLE_EQ(mh.normalized_cost(1.0), 1.0);
}

TEST(MetricMapTest, DspfSteeperThanHnAtHighUtilization) {
  const MetricMap hn{MetricKind::kHnSpf, LineType::kTerrestrial56, kParams,
                     util::SimTime::zero()};
  const MetricMap dspf{MetricKind::kDspf, LineType::kTerrestrial56, kParams,
                       util::SimTime::zero()};
  EXPECT_GT(dspf.normalized_cost(0.95), 3.0 * hn.normalized_cost(0.95));
}

// ---- response map ----

struct ResponseFixture {
  net::Topology topo = net::build_topology("grid:width=4,height=4");
  traffic::TrafficMatrix matrix =
      traffic::TrafficMatrix::uniform(topo.node_count(), 1e6);
  NetworkResponseMap map = NetworkResponseMap::build(topo, matrix);
};

TEST(ResponseMapTest, BaseIsOneAndMonotoneNonIncreasing) {
  const ResponseFixture f;
  // At one hop (ties in favor) the average link carries its base traffic.
  EXPECT_NEAR(f.map.traffic_fraction(1.0), 1.0, 1e-9);
  double prev = 1e9;
  for (double c = 0.8; c <= 9.0; c += 0.2) {
    const double frac = f.map.traffic_fraction(c);
    EXPECT_LE(frac, prev + 1e-9) << c;
    prev = frac;
  }
}

TEST(ResponseMapTest, HighCostShedsMostTraffic) {
  const ResponseFixture f;
  // Figure 8: "If the link reports a cost of 4, then over 90% of its base
  // traffic will be shed" — grids are less path-diverse than the ARPANET,
  // so allow a looser bound here (the fig08 bench checks the real one).
  EXPECT_LT(f.map.traffic_fraction(5.0), 0.35);
  EXPECT_LT(f.map.traffic_fraction(8.9), f.map.traffic_fraction(1.5));
}

TEST(ResponseMapTest, BelowOneHopAttractsNoExtraTraffic) {
  const ResponseFixture f;
  // Any cost in (0,1] (ties favor) yields the same routes.
  EXPECT_NEAR(f.map.traffic_fraction(0.8), f.map.traffic_fraction(1.0), 1e-9);
}

TEST(ResponseMapTest, EpsilonProblem) {
  const ResponseFixture f;
  // The paper's "epsilon problem": a tiny cost change around a tie sheds a
  // large amount of traffic. Crossing from one hop (ties favor) to just
  // above loses all tie-won routes.
  const double before = f.map.traffic_fraction(1.0);
  const double after = f.map.traffic_fraction(1.3);
  EXPECT_LT(after, 0.8 * before);
}

TEST(ResponseMapTest, RejectsBadGrid) {
  const ResponseFixture f;
  NetworkResponseMap::Config cfg;
  cfg.step = 0.0;
  EXPECT_THROW((void)NetworkResponseMap::build(f.topo, f.matrix, cfg),
               std::invalid_argument);
  cfg = NetworkResponseMap::Config{};
  cfg.max_cost = cfg.min_cost - 1;
  EXPECT_THROW((void)NetworkResponseMap::build(f.topo, f.matrix, cfg),
               std::invalid_argument);
}

TEST(ResponseMapTest, LinkTrafficAtCostMatchesManualCount) {
  // Two-node network: all 0->1 traffic uses the only link at any cost.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56);
  traffic::TrafficMatrix m{2};
  m.set(a, b, 500.0);
  EXPECT_DOUBLE_EQ(
      NetworkResponseMap::link_traffic_at_cost(t, m, 0, 5.5), 500.0);
  EXPECT_DOUBLE_EQ(
      NetworkResponseMap::link_traffic_at_cost(t, m, 1, 0.875), 0.0);
}

// ---- shed cost ----

TEST(ShedCostTest, LongRoutesShedEasierThanShortOnes) {
  const net::Topology topo = net::build_topology("arpanet87");
  const auto matrix = traffic::TrafficMatrix::uniform(topo.node_count(), 1e6);
  const ShedCostResult r = shed_cost_study(topo, matrix);

  // Figure 7's shape: short routes need a high reported cost to shed; long
  // routes have only-slightly-longer alternates.
  const auto& by_len = r.by_route_length;
  ASSERT_GT(by_len.size(), 6u);
  ASSERT_GT(by_len[1].count(), 0);
  ASSERT_GT(by_len[5].count(), 0);
  EXPECT_GT(by_len[1].mean(), by_len[5].mean());
  // Section 5.2: the average link sheds everything around 4 hops, the worst
  // around 8; allow generous bands for the synthetic topology.
  EXPECT_GT(r.shed_all.mean(), 2.0);
  EXPECT_LT(r.shed_all.mean(), 6.5);
  EXPECT_LE(r.shed_all.max(), 13.0);
  EXPECT_EQ(r.unshed_routes, 0);
}

// ---- equilibrium ----

struct EquilibriumFixture {
  ResponseFixture f;
  MetricMap hn{MetricKind::kHnSpf, LineType::kTerrestrial56, kParams,
               util::SimTime::zero()};
  MetricMap dspf{MetricKind::kDspf, LineType::kTerrestrial56, kParams,
                 util::SimTime::zero()};
  MetricMap minhop{MetricKind::kMinHop, LineType::kTerrestrial56, kParams,
                   util::SimTime::zero()};
};

TEST(EquilibriumTest, FixedPointProperty) {
  const EquilibriumFixture e;
  for (const double load : {0.5, 1.0, 1.5, 2.0, 3.0}) {
    const EquilibriumPoint p =
        EquilibriumModel{e.f.map, e.hn}.equilibrium(load);
    // cost == M(u(cost)) within bisection tolerance.
    const double back = e.hn.normalized_cost(
        EquilibriumModel{e.f.map, e.hn}.utilization_at(p.cost_hops, load));
    EXPECT_NEAR(back, p.cost_hops, 1e-6) << load;
  }
}

TEST(EquilibriumTest, MinHopSaturatesAtCapacity) {
  const EquilibriumFixture e;
  const EquilibriumModel m{e.f.map, e.minhop};
  EXPECT_NEAR(m.equilibrium(0.5).utilization, 0.5, 1e-6);
  EXPECT_TRUE(m.equilibrium(1.5).oversubscribed);
  EXPECT_DOUBLE_EQ(m.equilibrium(1.5).cost_hops, 1.0);
}

TEST(EquilibriumTest, LightLoadAllMetricsAgree) {
  const EquilibriumFixture e;
  // Under light load nothing sheds: every metric sits at one hop.
  for (const MetricMap* map : {&e.hn, &e.dspf, &e.minhop}) {
    const EquilibriumPoint p = EquilibriumModel{e.f.map, *map}.equilibrium(0.3);
    EXPECT_NEAR(p.cost_hops, 1.0, 0.05);
    EXPECT_NEAR(p.utilization, 0.3, 0.05);
  }
}

/// Figure 10's ordering: under overload HN-SPF sustains higher equilibrium
/// utilization than D-SPF (and min-hop pins at 1.0 = oversubscription).
TEST(EquilibriumTest, HnSustainsMoreTrafficThanDspfUnderOverload) {
  const EquilibriumFixture e;
  for (const double load : {1.5, 2.0, 3.0}) {
    const auto hn = EquilibriumModel{e.f.map, e.hn}.equilibrium(load);
    const auto dspf = EquilibriumModel{e.f.map, e.dspf}.equilibrium(load);
    EXPECT_GT(hn.utilization, dspf.utilization) << load;
  }
}

// ---- dynamic traces ----

TEST(DynamicTraceTest, DspfDivergesFromFarStartUnderHeavyLoad) {
  const EquilibriumFixture e;
  // Start far from equilibrium at 100% offered load: unbounded oscillation
  // between extremes (figure 11).
  const auto trace = trace_dspf(e.f.map, e.dspf, 1.0, 1.0, 60);
  const double amplitude = tail_amplitude(trace);
  EXPECT_GT(amplitude, 5.0);
}

TEST(DynamicTraceTest, DspfStableUnderLightLoad) {
  const EquilibriumFixture e;
  const auto trace = trace_dspf(e.f.map, e.dspf, 0.4, 3.0, 60);
  EXPECT_LT(tail_amplitude(trace), 0.75);
}

TEST(DynamicTraceTest, HnOscillationBoundedByMovementLimits) {
  const EquilibriumFixture e;
  const auto trace = trace_hnspf(
      e.f.map, kParams.for_type(LineType::kTerrestrial56),
      LineType::kTerrestrial56, 1.0, 80, /*start_at_max=*/false);
  // Amplitude bounded by roughly one hop (up_limit+down_limit = 31 units).
  EXPECT_LT(tail_amplitude(trace), 1.2);
  // And it stays within the legal cost band.
  for (const TraceStep& s : trace) {
    EXPECT_GE(s.cost_hops, 1.0 - 1e-9);
    EXPECT_LE(s.cost_hops, 3.0 + 1e-9);
  }
}

TEST(DynamicTraceTest, HnEaseInDescendsFromMax) {
  const EquilibriumFixture e;
  const auto trace = trace_hnspf(
      e.f.map, kParams.for_type(LineType::kTerrestrial56),
      LineType::kTerrestrial56, 0.6, 30, /*start_at_max=*/true);
  EXPECT_NEAR(trace.front().cost_hops, 3.0, 1e-9);
  // Monotone-ish descent: each step moves at most down_limit (half hop).
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].cost_hops, trace[i - 1].cost_hops + 1e-9);
    EXPECT_GE(trace[i].cost_hops, trace[i - 1].cost_hops - 0.5 - 1e-9);
  }
  // Utilization is pulled in gradually, not all at once.
  EXPECT_LT(trace[0].utilization, trace.back().utilization);
}

TEST(DynamicTraceTest, TailAmplitudeOfConstantTraceIsZero) {
  std::vector<TraceStep> flat(10, TraceStep{2.0, 0.5});
  EXPECT_DOUBLE_EQ(tail_amplitude(flat), 0.0);
  EXPECT_DOUBLE_EQ(tail_amplitude({}), 0.0);
}

}  // namespace
}  // namespace arpanet::analysis
