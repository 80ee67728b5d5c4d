// The sweep engine: axis expansion, deterministic per-cell seeding, and the
// acceptance property — a SweepRunner on N worker threads produces
// byte-identical CSV output to a single-threaded run of the same spec.

#include <gtest/gtest.h>

#include <set>

#include "src/exp/experiment.h"
#include "src/net/builders/registry.h"

namespace arpanet::exp {
namespace {

using metrics::MetricKind;
using sim::ScenarioConfig;
using sim::TrafficShape;
using util::SimTime;

SweepOptions threads(int n) {
  SweepOptions opts;
  opts.threads = n;
  return opts;
}

/// A small, fast base scenario on the two-region network.
ScenarioConfig fast_base() {
  return ScenarioConfig{}
      .with_shape(TrafficShape::kUniform)
      .with_load_bps(50e3)
      .with_warmup(SimTime::from_sec(15))
      .with_window(SimTime::from_sec(45));
}

TEST(SweepSpecTest, EmptyAxesFallBackToBase) {
  SweepSpec spec;
  spec.base = fast_base().with_metric(MetricKind::kDspf).with_seed(7);
  EXPECT_EQ(spec.cell_count(), 1u);

  const NamedTopology topo{"t", net::build_topology("ring:nodes=4")};
  const auto cells = expand_cells(spec, topo);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].metric, MetricKind::kDspf);
  EXPECT_EQ(cells[0].seed, 7u);
  EXPECT_EQ(cells[0].topology, "t");
  EXPECT_EQ(cells[0].topo, &topo.topo);
}

TEST(SweepSpecTest, ExpandsCrossProductInDeterministicOrder) {
  SweepSpec spec;
  spec.base = fast_base();
  spec.over_metrics({MetricKind::kDspf, MetricKind::kHnSpf})
      .over_loads_bps({40e3, 60e3})
      .over_seeds({1, 2, 3});
  EXPECT_EQ(spec.cell_count(), 12u);

  const NamedTopology topo{"t", net::build_topology("ring:nodes=4")};
  const auto cells = expand_cells(spec, topo);
  ASSERT_EQ(cells.size(), 12u);
  // Ordering: metric-major, then load, then seed; indexes are dense.
  EXPECT_EQ(cells[0].metric, MetricKind::kDspf);
  EXPECT_DOUBLE_EQ(cells[0].offered_load_bps, 40e3);
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[3].offered_load_bps, 60e3);
  EXPECT_EQ(cells[6].metric, MetricKind::kHnSpf);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(SweepSpecTest, LoadRangeIsInclusiveAndValidated) {
  SweepSpec spec;
  spec.over_load_range_bps(250e3, 550e3, 75e3);
  ASSERT_EQ(spec.loads_bps.size(), 5u);
  EXPECT_DOUBLE_EQ(spec.loads_bps.front(), 250e3);
  EXPECT_DOUBLE_EQ(spec.loads_bps.back(), 550e3);

  EXPECT_THROW((void)SweepSpec{}.over_load_range_bps(100, 50, 10),
               std::invalid_argument);
  EXPECT_THROW((void)SweepSpec{}.over_load_range_bps(0, 50, 0),
               std::invalid_argument);
  EXPECT_THROW((void)SweepSpec{}.over_loads_bps({10e3, -1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)SweepSpec{}.over_replicas(0), std::invalid_argument);
}

TEST(SweepSpecTest, ReplicasDeriveConsecutiveSeeds) {
  SweepSpec spec;
  spec.base.seed = 100;
  spec.over_replicas(3);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{100, 101, 102}));
}

TEST(SweepSeedTest, DerivedSeedsDifferAcrossEveryAxis) {
  const std::uint64_t base =
      derive_cell_seed("t", MetricKind::kHnSpf, 400e3, TrafficShape::kPeakHour, 1);
  EXPECT_NE(base, derive_cell_seed("u", MetricKind::kHnSpf, 400e3,
                                   TrafficShape::kPeakHour, 1));
  EXPECT_NE(base, derive_cell_seed("t", MetricKind::kDspf, 400e3,
                                   TrafficShape::kPeakHour, 1));
  EXPECT_NE(base, derive_cell_seed("t", MetricKind::kHnSpf, 401e3,
                                   TrafficShape::kPeakHour, 1));
  EXPECT_NE(base, derive_cell_seed("t", MetricKind::kHnSpf, 400e3,
                                   TrafficShape::kUniform, 1));
  EXPECT_NE(base, derive_cell_seed("t", MetricKind::kHnSpf, 400e3,
                                   TrafficShape::kPeakHour, 2));
  // And it is a pure function: same axes, same stream.
  EXPECT_EQ(base, derive_cell_seed("t", MetricKind::kHnSpf, 400e3,
                                   TrafficShape::kPeakHour, 1));
}

TEST(SweepRunnerTest, ParallelCsvIsByteIdenticalToSerial) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  spec.over_metrics({MetricKind::kDspf, MetricKind::kHnSpf})
      .over_loads_bps({40e3, 70e3})
      .over_seeds({11, 22});

  const SweepResult serial = e.sweep(spec, threads(1));
  const SweepResult parallel = e.sweep(spec, threads(4));

  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), 8u);
  EXPECT_EQ(serial.threads_used, 1);
  EXPECT_EQ(parallel.threads_used, 4);
  // The acceptance property: identical bytes, any thread count.
  EXPECT_EQ(serial.csv(), parallel.csv());

  // Telemetry is populated per run.
  for (const SweepRun& r : parallel.runs) {
    EXPECT_GT(r.result.events_processed, 0u);
    EXPECT_GT(r.result.wall_seconds, 0.0);
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, 4);
  }
  EXPECT_GT(parallel.total_events(), 0u);
  EXPECT_GT(parallel.elapsed_seconds, 0.0);
}

TEST(SweepRunnerTest, SweepCellMatchesEquivalentSingleRun) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  spec.over_metrics({MetricKind::kHnSpf}).over_loads_bps({60e3});

  const SweepResult sweep = e.sweep(spec, threads(2));
  ASSERT_EQ(sweep.size(), 1u);
  const auto single = e.run(sweep.at(0).cell.to_config(spec.base));

  // Same derived config => bit-identical simulation outcome.
  EXPECT_EQ(single.stats.packets_generated,
            sweep.at(0).result.stats.packets_generated);
  EXPECT_EQ(single.stats.packets_delivered,
            sweep.at(0).result.stats.packets_delivered);
  EXPECT_DOUBLE_EQ(single.indicators.round_trip_delay_ms,
                   sweep.at(0).result.indicators.round_trip_delay_ms);
  EXPECT_EQ(single.events_processed, sweep.at(0).result.events_processed);
}

TEST(SweepRunnerTest, ResultsLandInCellOrderNotCompletionOrder) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  // Mixed window lengths: later cells finish before earlier ones.
  spec.over_loads_bps({90e3, 30e3, 60e3, 45e3});

  const SweepResult r = e.sweep(spec, threads(4));
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r.at(0).cell.offered_load_bps, 90e3);
  EXPECT_DOUBLE_EQ(r.at(1).cell.offered_load_bps, 30e3);
  EXPECT_DOUBLE_EQ(r.at(2).cell.offered_load_bps, 60e3);
  EXPECT_DOUBLE_EQ(r.at(3).cell.offered_load_bps, 45e3);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r.at(i).cell.index, i);
}

TEST(SweepRunnerTest, InvalidBaseConfigRethrowsOnCallingThread) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  spec.base.window = SimTime::zero();  // direct write: caught at run time
  spec.over_loads_bps({40e3, 50e3});
  EXPECT_THROW((void)e.sweep(spec, threads(2)),
               std::invalid_argument);
}

TEST(SweepRunnerTest, ProgressCallbackSeesEveryCellExactlyOnce) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  spec.over_seeds({1, 2, 3, 4, 5});

  std::set<std::size_t> seen;
  SweepOptions opts;
  opts.threads = 3;
  opts.on_run_done = [&](const SweepRun& r) { seen.insert(r.cell.index); };
  const SweepResult result = e.sweep(spec, opts);
  EXPECT_EQ(result.size(), 5u);
  EXPECT_EQ(seen, (std::set<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepResultTest, CsvCarriesAxesAndSummaryCarriesTelemetry) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  spec.over_metrics({MetricKind::kMinHop});

  const SweepResult r = e.sweep(spec, threads(1));
  const std::string csv = r.csv();
  EXPECT_NE(csv.find("index,topology,metric"), std::string::npos);
  EXPECT_NE(csv.find("two-region,min-hop,uniform"), std::string::npos);
  // Wall time varies run to run, so it stays out of the CSV.
  EXPECT_EQ(csv.find("wall_sec"), std::string::npos);

  std::ostringstream summary;
  r.write_summary(summary);
  EXPECT_NE(summary.str().find("events/sec"), std::string::npos);
}

TEST(SweepTopologyAxisTest, SweepsAcrossNamedTopologies) {
  const Experiment e = Experiment::two_region(4);
  SweepSpec spec;
  spec.base = fast_base();
  std::vector<NamedTopology> topos;
  topos.push_back({"ring4", net::build_topology("ring:nodes=4")});
  topos.push_back({"grid2x3", net::build_topology("grid:width=2,height=3")});
  spec.over_topologies(std::move(topos));

  const SweepResult r = e.sweep(spec, threads(2));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0).cell.topology, "ring4");
  EXPECT_EQ(r.at(1).cell.topology, "grid2x3");
  // Different topologies, different streams and different outcomes.
  EXPECT_NE(r.at(0).cell.derived_seed, r.at(1).cell.derived_seed);
}

}  // namespace
}  // namespace arpanet::exp
