// The invariant layer (src/analysis/invariants.h, src/util/check.h):
// positive coverage that valid state passes and every scenario run
// self-audits, plus death tests proving ARPA_CHECK actually kills the
// process on each class of paper-invariant violation.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/core/hn_metric.h"
#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"
#include "src/net/builders/registry.h"
#include "src/routing/spf.h"
#include "src/sim/network.h"
#include "src/sim/psn.h"
#include "src/sim/scenario.h"
#include "src/util/check.h"

namespace {

using arpanet::core::HnMetric;
using arpanet::core::LineTypeParams;
using arpanet::util::SimTime;
namespace analysis = arpanet::analysis;
using arpanet::net::build_topology;

HnMetric terrestrial56_metric() {
  return HnMetric{LineTypeParams{}, arpanet::util::DataRate::kbps(56),
                  SimTime::from_ms(10)};
}

TEST(CheckMacroTest, PassingChecksAreSilent) {
  ARPA_CHECK(1 + 1 == 2) << "never evaluated";
  ARPA_DCHECK(1 + 1 == 2) << "never evaluated";
  SUCCEED();
}

TEST(CheckMacroTest, FailureAbortsWithFileAndMessage) {
  EXPECT_DEATH(ARPA_CHECK(false) << "metric " << 42 << " out of range",
               "ARPA_CHECK failed: false.*metric 42 out of range");
}

TEST(CheckMacroTest, DcheckCompiledOutUnderNdebug) {
  bool evaluated = false;
  const auto touch = [&evaluated] {
    evaluated = true;
    return true;
  };
#ifdef NDEBUG
  ARPA_DCHECK(touch());
  EXPECT_FALSE(evaluated) << "NDEBUG ARPA_DCHECK must not evaluate";
#else
  ARPA_DCHECK(touch());
  EXPECT_TRUE(evaluated);
#endif
}

TEST(CostBoundsTest, InRangeCostsPass) {
  using analysis::Cost;
  analysis::check_cost_in_bounds(Cost{30.0}, Cost{30.0}, Cost{90.0});
  analysis::check_cost_in_bounds(Cost{90.0}, Cost{30.0}, Cost{90.0});
  SUCCEED();
}

TEST(CostBoundsTest, DeathOnOutOfBoundsCost) {
  using analysis::Cost;
  EXPECT_DEATH(
      analysis::check_cost_in_bounds(Cost{90.5}, Cost{30.0}, Cost{90.0}),
      "above line-type maximum");
  EXPECT_DEATH(
      analysis::check_cost_in_bounds(Cost{29.0}, Cost{30.0}, Cost{90.0}),
      "below line-type minimum");
}

TEST(CostBoundsTest, DeathOnMisClippedHnSpfCost) {
  // A cost that escaped the Clip step of the figure 3 transform — e.g. a
  // raw cost reported directly — lies above the line's maximum and must be
  // fatal when it reaches the invariant layer.
  const HnMetric metric = terrestrial56_metric();
  const double mis_clipped = metric.max_cost() + metric.params().up_limit();
  EXPECT_DEATH(analysis::check_cost_in_bounds(analysis::Cost{mis_clipped},
                                              analysis::Cost{metric.min_cost()},
                                              analysis::Cost{metric.max_cost()}),
               "above line-type maximum");
}

TEST(MovementLimitTest, LimitedMovesPass) {
  const LineTypeParams params;  // up_limit 16, down_limit 15
  using analysis::Cost;
  analysis::check_movement_limited(Cost{60.0}, Cost{60.0 + params.up_limit()},
                                   params);
  analysis::check_movement_limited(Cost{60.0}, Cost{60.0 - params.down_limit()},
                                   params);
  // Report-to-report checks widen by the significance threshold.
  analysis::check_movement_limited(
      Cost{60.0}, Cost{60.0 + params.up_limit() + params.change_threshold()},
      params, params.change_threshold());
  SUCCEED();
}

TEST(MovementLimitTest, DeathOnViolation) {
  const LineTypeParams params;
  using analysis::Cost;
  EXPECT_DEATH(analysis::check_movement_limited(
                   Cost{60.0}, Cost{60.0 + params.up_limit() + 0.5}, params),
               "above the per-update up limit");
  EXPECT_DEATH(analysis::check_movement_limited(
                   Cost{60.0}, Cost{60.0 - params.down_limit() - 0.5}, params),
               "below the per-update down limit");
}

TEST(UtilizationRangeTest, FiniteNonNegativeFractionsPass) {
  using analysis::Utilization;
  analysis::check_utilization_in_range(Utilization{0.0});
  analysis::check_utilization_in_range(Utilization{0.73});
  // A transmission straddling the period boundary is attributed wholly to
  // the period it completes in, so slightly-above-1 is legitimate.
  analysis::check_utilization_in_range(Utilization{1.2});
  SUCCEED();
}

TEST(UtilizationRangeTest, DeathOnNegativeOrNonFinite) {
  using analysis::Utilization;
  EXPECT_DEATH(analysis::check_utilization_in_range(Utilization{-0.01}),
               "not a finite non-negative fraction");
  EXPECT_DEATH(analysis::check_utilization_in_range(
                   Utilization{std::numeric_limits<double>::quiet_NaN()}),
               "not a finite non-negative fraction");
}

TEST(FlatRegionTest, ArpanetDefaultsHaveThePaperShape) {
  analysis::check_flat_region(terrestrial56_metric());
  // Satellite propagation raises the minimum but must keep the shape.
  analysis::check_flat_region(HnMetric{LineTypeParams{},
                                       arpanet::util::DataRate::kbps(56),
                                       SimTime::from_ms(130)});
  SUCCEED();
}

TEST(SpfTreeCheckTest, ComputedTreesPass) {
  const arpanet::net::Topology topo = build_topology("ring:nodes=5");
  const std::vector<double> costs(topo.link_count(), 30.0);
  const auto tree = arpanet::routing::Spf::compute(topo, 0, costs);
  analysis::check_spf_tree(topo, tree, costs);
  SUCCEED();
}

TEST(SpfTreeCheckTest, DeathOnCorruptedParent) {
  const arpanet::net::Topology topo = build_topology("ring:nodes=5");
  const std::vector<double> costs(topo.link_count(), 30.0);
  auto tree = arpanet::routing::Spf::compute(topo, 0, costs);
  // Point node 2's parent at a link that does not end at node 2.
  for (const arpanet::net::Link& l : topo.links()) {
    if (l.to != 2) {
      tree.parent_link[2] = l.id;
      break;
    }
  }
  EXPECT_DEATH(analysis::check_spf_tree(topo, tree, costs), "ends at node");
}

TEST(PeriodMovementHookTest, EveryMeasurementPeriodIsCheckedExactly) {
  // The per-update-period hook enforces the movement bound at the cadence
  // the paper states it (every measurement period, no threshold slack), so
  // a long loaded run racks up node_count x periods checks.
  const arpanet::net::Topology topo = build_topology("ring:nodes=5");
  arpanet::sim::NetworkConfig cfg;
  arpanet::sim::Network net{topo, cfg};
  net.add_traffic(arpanet::traffic::TrafficMatrix::uniform(
      topo.node_count(), 200e3));
  net.run_for(SimTime::from_sec(100));
  // ~10 periods of 10 s on each of the 10 simplex links; the staggered
  // period clocks cost each node at most one close inside the window.
  EXPECT_GE(net.counters().invariant_period_checks, 9u * topo.link_count());
  EXPECT_LE(net.counters().invariant_period_checks, 10u * topo.link_count());
}

TEST(PeriodMovementHookTest, DeathOnOverLimitPeriodMove) {
  // A candidate cost that jumps more than up_limit in one period must kill
  // the process the moment the period closes — with no threshold widening:
  // one unit past the limit is enough.
  const LineTypeParams params;  // terrestrial56: up_limit 16
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  arpanet::sim::NetworkConfig cfg;
  arpanet::sim::Network net{topo, cfg};
  EXPECT_DEATH(
      net.on_period_measured(0, analysis::Cost{60.0},
                             analysis::Cost{60.0 + params.up_limit() + 1.0},
                             analysis::Utilization{0.5}),
      "above the per-update up limit");
}

TEST(PeriodMovementHookTest, DownSentinelPeriodsAreExempt) {
  // Link-down periods report the kDownLinkCost sentinel on either side of
  // the transition; neither direction is a metric movement.
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  arpanet::sim::NetworkConfig cfg;
  arpanet::sim::Network net{topo, cfg};
  using analysis::Cost;
  using analysis::Utilization;
  net.on_period_measured(0, Cost{arpanet::sim::Psn::kDownLinkCost},
                         Cost{90.0}, Utilization{0.0});
  net.on_period_measured(0, Cost{90.0},
                         Cost{arpanet::sim::Psn::kDownLinkCost},
                         Utilization{0.0});
  SUCCEED();
}

TEST(ReportMovementHookTest, DeathOnInBoundsJumpFromMaxToMin) {
  // Every report is checked against the link's previous one as it is made,
  // with the movement limit widened by the significance threshold. A jump
  // from the initial (maximum) cost straight to the line's minimum stays
  // inside the absolute bounds, so only the movement check can catch it.
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  arpanet::sim::NetworkConfig cfg;
  cfg.metric = arpanet::metrics::MetricKind::kHnSpf;
  arpanet::sim::Network net{topo, cfg};
  ASSERT_TRUE(net.hnspf_semantics());
  const arpanet::metrics::CostBounds bounds = net.link_bounds(0);
  const double initial = net.last_reported_cost(0);
  EXPECT_DOUBLE_EQ(initial, bounds.max_cost);
  const LineTypeParams& params =
      cfg.line_params.for_type(net.effective_link(0).type);
  ASSERT_GT(initial - bounds.min_cost,
            params.down_limit() + params.change_threshold());
  // The widest legal fall passes; the jump to the minimum does not.
  net.on_cost_reported(0, initial - params.down_limit() -
                              params.change_threshold());
  net.on_cost_reported(0, initial);
  EXPECT_DEATH(net.on_cost_reported(0, bounds.min_cost),
               "below the per-update down limit");
}

TEST(ReportMovementHookTest, DownSentinelReportsAreExempt) {
  // A link that went down and came back restarts from its maximum: the
  // steps into and out of kDownLinkCost are not metric movements.
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  arpanet::sim::NetworkConfig cfg;
  cfg.metric = arpanet::metrics::MetricKind::kHnSpf;
  arpanet::sim::Network net{topo, cfg};
  const arpanet::metrics::CostBounds bounds = net.link_bounds(0);
  net.on_cost_reported(0, arpanet::sim::Psn::kDownLinkCost);
  net.on_cost_reported(0, bounds.min_cost);
  EXPECT_DOUBLE_EQ(net.last_reported_cost(0), bounds.min_cost);
}

TEST(ReportBoundsHookTest, DeathWhenAReportLeavesTheLinkBounds) {
  // Every report is checked against its link's metric bounds as it is
  // made. Right after a down report no movement limit applies, so only
  // the bounds check can catch a cost outside the range.
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  for (const auto kind : {arpanet::metrics::MetricKind::kDspf,
                          arpanet::metrics::MetricKind::kHnSpf}) {
    SCOPED_TRACE(arpanet::metrics::to_string(kind));
    arpanet::sim::NetworkConfig cfg;
    cfg.metric = kind;
    arpanet::sim::Network net{topo, cfg};
    const arpanet::metrics::CostBounds bounds = net.link_bounds(0);
    const double down = arpanet::sim::Psn::kDownLinkCost;
    ASSERT_LT(bounds.min_cost, bounds.max_cost);
    ASSERT_GT(down, bounds.max_cost + 1.0);
    // Both ends of the range are legal reports.
    net.on_cost_reported(0, down);
    net.on_cost_reported(0, bounds.min_cost);
    net.on_cost_reported(0, down);
    net.on_cost_reported(0, bounds.max_cost);
    net.on_cost_reported(0, down);
    EXPECT_DEATH(net.on_cost_reported(0, bounds.min_cost - 0.5),
                 "below line-type minimum");
    EXPECT_DEATH(net.on_cost_reported(0, bounds.max_cost + 0.5),
                 "above line-type maximum");
  }
}

TEST(MetricFactoryBoundsTest, AuditValidatesCustomFactoryAgainstItsBounds) {
  // The bounds the audit judges live costs against are the ones a metric
  // of the link's kind built for the link declares, and the audit
  // bounds-checks every link's cost against them.
  const arpanet::net::Topology topo = build_topology("ring:nodes=4");
  for (const auto kind : {arpanet::metrics::MetricKind::kMinHop,
                          arpanet::metrics::MetricKind::kDspf,
                          arpanet::metrics::MetricKind::kHnSpf}) {
    SCOPED_TRACE(arpanet::metrics::to_string(kind));
    arpanet::sim::NetworkConfig cfg;
    cfg.metric = kind;
    arpanet::sim::Network net{topo, cfg};
    for (const arpanet::net::Link& link : topo.links()) {
      const arpanet::metrics::CostBounds declared =
          arpanet::metrics::LinkMetric{kind, net.effective_link(link.id),
                                       cfg.line_params}
              .bounds();
      const arpanet::metrics::CostBounds held = net.link_bounds(link.id);
      EXPECT_DOUBLE_EQ(held.min_cost, declared.min_cost);
      EXPECT_DOUBLE_EQ(held.max_cost, declared.max_cost);
    }
    const analysis::AuditStats stats = analysis::audit_network(net);
    EXPECT_EQ(stats.costs_checked, static_cast<long>(topo.link_count()));
  }
}

TEST(ScenarioAuditTest, EveryScenarioRunSelfAudits) {
  // Every kind's live costs are judged against the bounds the network
  // enforced on its reports; only HN-SPF has equilibrium maps to check.
  const arpanet::net::Topology topo = build_topology("ring:nodes=5");
  for (const auto kind : {arpanet::metrics::MetricKind::kMinHop,
                          arpanet::metrics::MetricKind::kDspf,
                          arpanet::metrics::MetricKind::kHnSpf}) {
    SCOPED_TRACE(arpanet::metrics::to_string(kind));
    const auto cfg = arpanet::sim::ScenarioConfig{}
                         .with_metric(kind)
                         .with_load_bps(50e3)
                         .with_warmup(SimTime::from_sec(30))
                         .with_window(SimTime::from_sec(60));
    const auto result = arpanet::sim::run_scenario(topo, cfg, "audit");
    const auto links = static_cast<long>(topo.link_count());
    EXPECT_EQ(result.audit.costs_checked, links);
    EXPECT_EQ(result.audit.maps_checked,
              kind == arpanet::metrics::MetricKind::kHnSpf ? links : 0);
    EXPECT_EQ(result.audit.trees_checked,
              static_cast<long>(topo.node_count()));
  }
}

}  // namespace
