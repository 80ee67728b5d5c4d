// ScenarioConfig: fluent builder validation, label derivation, and the
// aggregate-init compatibility the transition depends on.

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"
#include "src/sim/scenario.h"

namespace arpanet::sim {
namespace {

using metrics::MetricKind;
using util::SimTime;

TEST(ScenarioBuilderTest, ChainsAndSetsEveryField) {
  NetworkConfig net;
  net.queue_capacity = 25;
  const ScenarioConfig cfg = ScenarioConfig{}
                                 .with_metric(MetricKind::kDspf)
                                 .with_load_bps(414e3)
                                 .with_shape(TrafficShape::kUniform)
                                 .with_warmup(SimTime::from_sec(30))
                                 .with_window(SimTime::from_sec(90))
                                 .with_seed(0xabcd)
                                 .with_label("D-SPF(Aug)")
                                 .with_network(net);
  EXPECT_EQ(cfg.metric, MetricKind::kDspf);
  EXPECT_DOUBLE_EQ(cfg.offered_load_bps, 414e3);
  EXPECT_EQ(cfg.shape, TrafficShape::kUniform);
  EXPECT_EQ(cfg.warmup, SimTime::from_sec(30));
  EXPECT_EQ(cfg.window, SimTime::from_sec(90));
  EXPECT_EQ(cfg.seed, 0xabcdu);
  EXPECT_EQ(cfg.label, "D-SPF(Aug)");
  EXPECT_EQ(cfg.network.queue_capacity, 25);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ScenarioBuilderTest, RejectsNegativeLoad) {
  EXPECT_THROW((void)ScenarioConfig{}.with_load_bps(-1.0),
               std::invalid_argument);
  // Zero load is a legal idle scenario.
  EXPECT_NO_THROW((void)ScenarioConfig{}.with_load_bps(0.0));
}

TEST(ScenarioBuilderTest, RejectsZeroOrNegativeWindow) {
  EXPECT_THROW((void)ScenarioConfig{}.with_window(SimTime::zero()),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioConfig{}.with_window(SimTime::from_sec(-5)),
               std::invalid_argument);
  EXPECT_THROW((void)ScenarioConfig{}.with_warmup(SimTime::from_sec(-1)),
               std::invalid_argument);
  // Zero warmup is legal (measure from cold start).
  EXPECT_NO_THROW((void)ScenarioConfig{}.with_warmup(SimTime::zero()));
}

TEST(ScenarioBuilderTest, FailedSetterLeavesConfigUnchanged) {
  ScenarioConfig cfg;
  const double before = cfg.offered_load_bps;
  EXPECT_THROW((void)cfg.with_load_bps(-7.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(cfg.offered_load_bps, before);
}

TEST(ScenarioBuilderTest, ValidateCatchesDirectFieldWrites) {
  ScenarioConfig cfg;
  cfg.offered_load_bps = -10.0;  // aggregate writes bypass the setters
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  ScenarioConfig zero_window;
  zero_window.window = SimTime::zero();
  EXPECT_THROW(zero_window.validate(), std::invalid_argument);

  ScenarioConfig bad_queue;
  bad_queue.network.queue_capacity = 0;
  EXPECT_THROW(bad_queue.validate(), std::invalid_argument);
}

TEST(ScenarioBuilderTest, AggregateInitStillWorks) {
  // The transition keeps ScenarioConfig an aggregate: existing call sites
  // use field assignment and designated initializers.
  // GCC's -Wmissing-field-initializers fires on designated initializers even
  // though the omitted members take their defaulted values — the exact
  // behaviour this test asserts. Silence it for the demonstration.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
  const ScenarioConfig designated{.metric = MetricKind::kMinHop,
                                  .offered_load_bps = 123e3,
                                  .shape = TrafficShape::kUniform};
#pragma GCC diagnostic pop
  EXPECT_EQ(designated.metric, MetricKind::kMinHop);
  EXPECT_DOUBLE_EQ(designated.offered_load_bps, 123e3);

  ScenarioConfig assigned;
  assigned.metric = MetricKind::kDspf;
  assigned.offered_load_bps = 366e3;
  EXPECT_NO_THROW(assigned.validate());
}

TEST(ScenarioBuilderTest, EffectiveLabelPrefersExplicitThenKind) {
  ScenarioConfig cfg;
  cfg.metric = MetricKind::kDspf;
  EXPECT_EQ(cfg.effective_label(), "D-SPF");

  cfg.with_metric(MetricKind::kMinHop);
  EXPECT_EQ(cfg.effective_label(), "min-hop");

  cfg.with_label("custom");
  EXPECT_EQ(cfg.effective_label(), "custom");
}

TEST(ScenarioBuilderTest, ExplicitMatrixMustMatchTopology) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  ScenarioConfig cfg = ScenarioConfig{}.with_matrix(traffic::TrafficMatrix{7});
  EXPECT_THROW((void)scenario_matrix(topo, cfg), std::invalid_argument);

  traffic::TrafficMatrix m{4};
  m.set(0, 2, 10e3);
  cfg.with_matrix(m);
  const auto built = scenario_matrix(topo, cfg);
  EXPECT_DOUBLE_EQ(built.at(0, 2), 10e3);
  EXPECT_DOUBLE_EQ(built.total_bps(), 10e3);
}

TEST(ScenarioBuilderTest, RunScenarioValidatesBeforeRunning) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  ScenarioConfig cfg;
  cfg.window = SimTime::zero();
  EXPECT_THROW((void)run_scenario(topo, cfg), std::invalid_argument);
}

TEST(ScenarioBuilderTest, RunScenarioReportsTelemetryAndDefaultLabel) {
  const net::Topology topo = net::build_topology("ring:nodes=4");
  const ScenarioConfig cfg = ScenarioConfig{}
                                 .with_shape(TrafficShape::kUniform)
                                 .with_load_bps(40e3)
                                 .with_warmup(SimTime::from_sec(10))
                                 .with_window(SimTime::from_sec(30));
  const ScenarioResult r = run_scenario(topo, cfg);
  EXPECT_EQ(r.indicators.label, "HN-SPF");  // derived from the default metric
  EXPECT_GT(r.events_processed, 0u);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.events_per_sec(), 0.0);
  EXPECT_GT(r.stats.packets_delivered, 0);
}

}  // namespace
}  // namespace arpanet::sim
