// MetricFactory: the open injection point behind NetworkConfig. Covers the
// closed-set KindMetricFactory (parity with make_metric), the ad-hoc
// FunctionMetricFactory, and end-to-end injection through a scenario run.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/line_params.h"
#include "src/metrics/dspf_metric.h"
#include "src/metrics/metric_factory.h"
#include "src/metrics/minhop_metric.h"
#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

namespace arpanet::metrics {
namespace {

using sim::ScenarioConfig;
using sim::TrafficShape;
using util::SimTime;

net::Link test_link() {
  net::Topology topo = net::build_topology("ring:nodes=4");
  return topo.links()[0];
}

TEST(KindMetricFactoryTest, MatchesMakeMetricForEveryKind) {
  const net::Link link = test_link();
  const core::LineParamsTable params;
  for (MetricKind kind :
       {MetricKind::kMinHop, MetricKind::kDspf, MetricKind::kHnSpf}) {
    const KindMetricFactory factory{kind};
    EXPECT_EQ(factory.kind(), kind);
    EXPECT_EQ(factory.name(), to_string(kind));

    const auto from_factory = factory.create(link, params);
    const auto from_free_fn = make_metric(kind, link, params);
    ASSERT_NE(from_factory, nullptr);
    ASSERT_NE(from_free_fn, nullptr);
    EXPECT_DOUBLE_EQ(from_factory->initial_cost(), from_free_fn->initial_cost());
    EXPECT_DOUBLE_EQ(from_factory->change_threshold(),
                     from_free_fn->change_threshold());
    EXPECT_EQ(from_factory->threshold_decays(), from_free_fn->threshold_decays());
  }
}

TEST(KindMetricFactoryTest, BoundsMatchTheBuiltInMetricRanges) {
  const net::Link link = test_link();
  const core::LineParamsTable params;

  const auto minhop = KindMetricFactory{MetricKind::kMinHop}.bounds(link, params);
  ASSERT_TRUE(minhop.has_value());
  EXPECT_DOUBLE_EQ(minhop->min_cost, MinHopMetric{}.initial_cost());
  EXPECT_DOUBLE_EQ(minhop->max_cost, MinHopMetric{}.initial_cost());

  const auto dspf = KindMetricFactory{MetricKind::kDspf}.bounds(link, params);
  ASSERT_TRUE(dspf.has_value());
  EXPECT_DOUBLE_EQ(dspf->min_cost,
                   (DspfMetric{link.rate, link.prop_delay}.bias()));
  EXPECT_DOUBLE_EQ(dspf->max_cost, DspfMetric::kMaxUnits);

  const auto hnspf = KindMetricFactory{MetricKind::kHnSpf}.bounds(link, params);
  ASSERT_TRUE(hnspf.has_value());
  const core::LineTypeParams& p = params.for_type(link.type);
  EXPECT_DOUBLE_EQ(hnspf->min_cost, p.min_cost(link.prop_delay));
  EXPECT_DOUBLE_EQ(hnspf->max_cost, p.max_cost);
}

TEST(FunctionMetricFactoryTest, InvokesTheCallable) {
  int calls = 0;
  const FunctionMetricFactory factory{
      "fixed-cost", [&calls](const net::Link&, const core::LineParamsTable&) {
        ++calls;
        return std::make_unique<MinHopMetric>(3.0);
      }};
  EXPECT_EQ(factory.name(), "fixed-cost");

  const auto metric = factory.create(test_link(), core::LineParamsTable{});
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(metric->initial_cost(), 3.0);
}

TEST(FunctionMetricFactoryTest, RejectsNullCallableAndNullResult) {
  EXPECT_THROW((FunctionMetricFactory{"null", nullptr}),
               std::invalid_argument);

  const FunctionMetricFactory returns_null{
      "bad", [](const net::Link&, const core::LineParamsTable&) {
        return std::unique_ptr<LinkMetric>{};
      }};
  EXPECT_THROW((void)returns_null.create(test_link(), core::LineParamsTable{}),
               std::logic_error);
}

TEST(MetricFactoryInjectionTest, NetworkUsesInjectedFactory) {
  // A custom factory that reproduces min-hop exactly must yield a simulation
  // bit-identical to selecting MetricKind::kMinHop — same code path, same
  // RNG stream, only the construction seam differs.
  const net::Topology topo = net::build_topology("two-region:per_region=4");

  ScenarioConfig by_kind = ScenarioConfig{}
                               .with_metric(MetricKind::kMinHop)
                               .with_shape(TrafficShape::kUniform)
                               .with_load_bps(40e3)
                               .with_warmup(SimTime::from_sec(10))
                               .with_window(SimTime::from_sec(30));

  ScenarioConfig by_factory = by_kind;
  by_factory.with_metric_factory(std::make_shared<FunctionMetricFactory>(
      "custom-min-hop",
      [](const net::Link& link, const core::LineParamsTable& params) {
        return make_metric(MetricKind::kMinHop, link, params);
      }));

  const auto kind_result = sim::run_scenario(topo, by_kind, "");
  const auto factory_result = sim::run_scenario(topo, by_factory, "");

  EXPECT_EQ(kind_result.stats.packets_generated,
            factory_result.stats.packets_generated);
  EXPECT_EQ(kind_result.stats.packets_delivered,
            factory_result.stats.packets_delivered);
  EXPECT_DOUBLE_EQ(kind_result.indicators.round_trip_delay_ms,
                   factory_result.indicators.round_trip_delay_ms);
  EXPECT_EQ(kind_result.events_processed, factory_result.events_processed);

  // The injected factory names the result.
  EXPECT_EQ(factory_result.indicators.label, "custom-min-hop");
  EXPECT_EQ(kind_result.indicators.label, "min-hop");
}

ScenarioConfig custom_factory_config(double declared_min, double declared_max) {
  // A fixed-cost custom metric whose factory declares absolute bounds; the
  // invariant layer must validate its costs against the declaration instead
  // of only recognizing the built-in kinds.
  return ScenarioConfig{}
      .with_metric_factory(std::make_shared<FunctionMetricFactory>(
          "fixed-5",
          [](const net::Link&, const core::LineParamsTable&) {
            return std::make_unique<MinHopMetric>(5.0);
          },
          [declared_min, declared_max](const net::Link&,
                                       const core::LineParamsTable&) {
            return CostBounds{declared_min, declared_max};
          }))
      .with_shape(TrafficShape::kUniform)
      .with_load_bps(40e3)
      .with_warmup(SimTime::from_sec(10))
      .with_window(SimTime::from_sec(30));
}

TEST(MetricFactoryBoundsTest, AuditValidatesCustomFactoryAgainstItsBounds) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  // Honest declaration: the constant cost 5 lies inside [4, 6], so the
  // end-of-run audit bounds-checks every link and passes.
  const auto result =
      sim::run_scenario(topo, custom_factory_config(4.0, 6.0), "");
  EXPECT_EQ(result.audit.costs_checked, static_cast<long>(topo.link_count()));
}

TEST(MetricFactoryBoundsTest, DeathWhenCostsViolateDeclaredBounds) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  // The factory promises [10, 20] but its metric reports the constant 5:
  // the audit must treat the factory's declaration as binding and abort.
  EXPECT_DEATH(
      (void)sim::run_scenario(topo, custom_factory_config(10.0, 20.0), ""),
      "below line-type minimum");
}

}  // namespace
}  // namespace arpanet::metrics
