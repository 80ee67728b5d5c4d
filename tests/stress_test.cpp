// Failure-injection and long-haul robustness sweeps. These are the "keeps
// running no matter what" tests: random trunk flaps, saturation, metric
// churn — invariants must hold throughout.

#include <gtest/gtest.h>

#include <string>

#include "src/analysis/convergence.h"
#include "src/net/builders/registry.h"
#include "src/obs/bench_report.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

/// Random trunk flaps while traffic flows: the network must never lose
/// conservation, never deadlock, and must converge once flapping stops.
/// Parameterized over metric kinds.
class FlapStress : public ::testing::TestWithParam<metrics::MetricKind> {};

INSTANTIATE_TEST_SUITE_P(Metrics, FlapStress,
                         ::testing::Values(metrics::MetricKind::kMinHop,
                                           metrics::MetricKind::kDspf,
                                           metrics::MetricKind::kHnSpf));

TEST_P(FlapStress, RandomTrunkFlapsNeverBreakInvariants) {
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig cfg;
  cfg.metric = GetParam();
  Network net{net87, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::peak_hour(net87.node_count(), 300e3,
                                        util::Rng{7}));
  util::Rng rng{GetParam() == metrics::MetricKind::kDspf ? 21u : 22u};

  // Flap random non-critical trunks. To keep the network connected we only
  // ever have one trunk down at a time.
  net::LinkId down = net::kInvalidLink;
  for (int round = 0; round < 12; ++round) {
    net.run_for(SimTime::from_sec(15));
    if (down != net::kInvalidLink) {
      net.set_trunk_up(down, true);
      down = net::kInvalidLink;
    } else {
      const auto trunk = static_cast<net::LinkId>(
          2 * rng.uniform_index(net87.trunk_count()));
      net.set_trunk_up(trunk, false);
      down = trunk;
    }
  }
  if (down != net::kInvalidLink) net.set_trunk_up(down, true);

  // Quiesce and drain.
  net.run_for(SimTime::from_sec(60));
  net.stop_traffic();
  net.run_for(SimTime::from_sec(60));

  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 10'000);
  EXPECT_EQ(s.packets_generated,
            s.packets_delivered + s.packets_dropped_queue +
                s.packets_dropped_unreachable + s.packets_dropped_loop);
  // SPF forwarding between consistent maps never loops.
  EXPECT_EQ(s.packets_dropped_loop, 0);
  // After the last recovery and a quiet minute, all PSNs agree again — once
  // no flooded update is still in flight (the 60 s drain can end on a
  // measurement-period boundary with a fresh report half-flooded).
  for (int i = 0; i < 30 && net.updates_in_flight() > 0; ++i) {
    net.run_for(SimTime::from_ms(700));
  }
  ASSERT_EQ(net.updates_in_flight(), 0u);
  EXPECT_TRUE(analysis::costs_converged(net));
}

TEST(StressTest, SustainedSaturationStaysLive) {
  // 3x network capacity for five simulated minutes: the simulator must stay
  // live (updates flowing, packets delivered at capacity), not wedge.
  const net::Topology two = net::build_topology("two-region:per_region=4");
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  cfg.queue_capacity = 15;
  Network net{two, cfg};
  net.add_traffic(traffic::TrafficMatrix::uniform(two.node_count(), 600e3));
  net.run_for(SimTime::from_sec(300));
  const NetworkStats& s = net.stats();
  EXPECT_GT(s.packets_delivered, 50'000);
  EXPECT_GT(s.packets_dropped_queue, 10'000);
  EXPECT_GT(s.updates_originated, 50);  // control plane survived
}

// Allocation counters misbehave only as noise under sanitizers (ASan/TSan
// shadow structures and interceptors allocate through our operator new), so
// the zero assertion applies to plain optimized builds only; the counters
// themselves are still exercised everywhere.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ARPANET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ARPANET_TEST_SANITIZED 1
#endif
#endif

TEST(StressTest, Arpanet87BatteryWindowIsAllocationFree) {
  // Mirror the bench battery's arpanet87 cell (src/obs/bench_report.cpp):
  // HN-SPF, 600 kb/s peak-hour load, 60 s warm-up, 120 s window. After
  // warm-up every pool and scratch buffer must be at its high-water mark,
  // so the guarded measurement window performs zero heap allocations.
  const net::Topology net87 = net::build_topology("arpanet87");
  auto cfg = ScenarioConfig{}
                 .with_metric(metrics::MetricKind::kHnSpf)
                 .with_load_bps(600e3)
                 .with_warmup(SimTime::from_sec(60))
                 .with_window(SimTime::from_sec(120));
  const ScenarioResult r = run_scenario(net87, cfg, "alloc-guard");

  // run_scenario wraps exactly the measurement window in an AllocGuard and
  // reports through the counters catalog.
  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "steady-state measurement window allocated on the heap; find the "
         "site with util::AllocGuard and pre-reserve it (see "
         "docs/static_analysis.md)";
#else
  // Debug/sanitized builds allocate in DCHECK plumbing and interceptors;
  // just prove the plumbing reported something sane.
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  EXPECT_GT(r.stats.packets_delivered, 10'000);
}

TEST(StressTest, LeoGrid256HnSpfWindowIsAllocationFree) {
  // Mirror the benchmark's SPF-bound workload (perfbench leo256-hnspf at
  // seed 7): a 256-node LEO torus under HN-SPF at 900 kb/s, where many
  // small incremental SPF passes and update floods run through the whole
  // window. At this seed more update floods overlap in the window than in
  // the 20 s warm-up, so this pins the update pool's headroom as well as
  // the SPF scratch.
  const net::Topology topo = net::TopologyBuilder::registry().build(
      net::GraphSpec::parse("leo-grid:nodes=256"));
  auto cfg = ScenarioConfig{}
                 .with_metric(metrics::MetricKind::kHnSpf)
                 .with_load_bps(900e3)
                 .with_seed(7)
                 .with_warmup(SimTime::from_sec(20))
                 .with_window(SimTime::from_sec(40));
  const ScenarioResult r = run_scenario(topo, cfg, "leo256-alloc-guard");

  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "steady-state measurement window allocated on the heap; find the "
         "site with util::AllocGuard and pre-reserve it (see "
         "docs/static_analysis.md)";
#else
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  EXPECT_GT(r.counters.spf_incremental, 100'000u);
}

TEST(StressTest, FlapStormWindowIsAllocationFree) {
  // The fault engine under fire: a 1 Hz flap storm on one trunk running
  // through the entire arpanet87 measurement window. Fault actions are
  // first-class SimEvents and the plan is compiled and pre-sized at install
  // time, so even a storm keeps the guarded window allocation-free.
  const net::Topology net87 = net::build_topology("arpanet87");
  auto cfg = ScenarioConfig{}
                 .with_metric(metrics::MetricKind::kHnSpf)
                 .with_load_bps(600e3)
                 .with_warmup(SimTime::from_sec(60))
                 .with_window(SimTime::from_sec(120))
                 .with_faults("flap:link=0,period_s=1,dwell_s=0.4");
  const ScenarioResult r = run_scenario(net87, cfg, "flap-storm");

  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "fault injection allocated inside the measurement window; fault "
         "state must be pre-sized at install time (see docs/faults.md)";
#else
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  // ~120 down/up pairs land inside the window.
  EXPECT_GT(r.stability.faults_applied, 100);
  EXPECT_GT(r.stats.packets_delivered, 10'000);
}

TEST(StressTest, DistanceVectorWindowIsAllocationFree) {
  // The 1969 baseline on arpanet87: every PSN advertises its whole distance
  // table to each neighbor every 2/3 s. Advertisements are pooled
  // UpdatePool slots reserved to the node count, so a window full of them
  // allocates nothing.
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig ncfg;
  ncfg.algorithm = routing::RoutingAlgorithm::kDistanceVector;
  auto cfg = ScenarioConfig{}
                 .with_network(ncfg)
                 .with_load_bps(300e3)
                 .with_warmup(SimTime::from_sec(60))
                 .with_window(SimTime::from_sec(120));
  const ScenarioResult r = run_scenario(net87, cfg, "dv-alloc-guard");

  EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
  EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
      << "a distance-vector exchange allocated inside the measurement "
         "window; advertisements must reuse pooled storage";
#else
  SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
  // Every node sends its table on each of its out-links once per 2/3 s, so
  // the 120 s window carries 180 exchanges x the summed out-degree (the
  // directed link count) copies, give or take one exchange per node at
  // each edge of the window. None of them is a link-state origination.
  const long links = static_cast<long>(net87.link_count());
  EXPECT_GT(r.stats.update_packets_sent, 180 * links - links);
  EXPECT_LT(r.stats.update_packets_sent, 180 * links + links);
  EXPECT_EQ(r.stats.updates_originated, 0);
  EXPECT_GT(r.stats.packets_delivered, 10'000);
}

TEST(StressTest, LineUpgradeWindowIsAllocationFree) {
  // Two line-type upgrades fire inside the arpanet87 measurement window.
  // Applying one rebuilds both halves' link record, metric, measurement and
  // significance filter in place and floods the new maximum cost; none of
  // that may allocate.
  const net::Topology net87 = net::build_topology("arpanet87");
  for (const metrics::MetricKind kind :
       {metrics::MetricKind::kHnSpf, metrics::MetricKind::kDspf}) {
    SCOPED_TRACE(metrics::to_string(kind));
    auto cfg = ScenarioConfig{}
                   .with_metric(kind)
                   .with_load_bps(600e3)
                   .with_warmup(SimTime::from_sec(60))
                   .with_window(SimTime::from_sec(120))
                   .with_faults(
                       "upgrade:link=10,at_s=90,type=112kb-multitrunk;"
                       "upgrade:link=20,at_s=120,type=56kb-satellite");
    const ScenarioResult r = run_scenario(net87, cfg, "upgrade-alloc-guard");

    EXPECT_EQ(r.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
    EXPECT_EQ(r.counters.alloc_guard_bytes_peak, 0u)
        << "a line upgrade allocated inside the measurement window";
#else
    SUCCEED() << "bytes_peak=" << r.counters.alloc_guard_bytes_peak;
#endif
    EXPECT_EQ(r.stability.faults_applied, 2);
    EXPECT_GT(r.stats.packets_delivered, 10'000);
  }
}

/// Every faulted cell of both bench batteries, run exactly as bench_report
/// runs it (same scenario, metric axis and derived seeds).
class FaultedBatteryCell : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Batteries, FaultedBatteryCell,
                         ::testing::Values("smoke", "battery"));

TEST_P(FaultedBatteryCell, WindowIsAllocationFree) {
  int faulted = 0;
  for (const obs::BenchScenario& scenario : obs::bench_battery(GetParam())) {
    if (scenario.fault_spec.empty()) continue;
    ++faulted;
    for (const obs::BenchCell& cell :
         obs::run_bench_scenario(scenario, /*threads=*/1)) {
      SCOPED_TRACE(cell.topology + " " + cell.metric);
      EXPECT_EQ(cell.counters.alloc_guard_scopes, 1u);
#if defined(NDEBUG) && !defined(ARPANET_TEST_SANITIZED)
      EXPECT_EQ(cell.counters.alloc_guard_bytes_peak, 0u)
          << "fault injection allocated inside the measurement window";
#else
      SUCCEED() << "bytes_peak=" << cell.counters.alloc_guard_bytes_peak;
#endif
      EXPECT_GT(cell.stability_faults_applied, 0);
    }
  }
  EXPECT_GT(faulted, 0) << "battery " << GetParam() << " has no fault cell";
}

TEST(StressTest, DelayPercentilesOrdered) {
  const net::Topology net87 = net::build_topology("arpanet87");
  NetworkConfig cfg;
  Network net{net87, cfg};
  net.add_traffic(
      traffic::TrafficMatrix::peak_hour(net87.node_count(), 420e3,
                                        util::Rng{3}));
  net.run_for(SimTime::from_sec(180));
  const auto ind = net.indicators("x");
  EXPECT_GT(ind.delay_p50_ms, 0.0);
  EXPECT_LE(ind.delay_p50_ms, ind.delay_p95_ms);
  EXPECT_LE(ind.delay_p95_ms, ind.delay_p99_ms);
  // Mean sits between median and p99 for this right-skewed distribution.
  EXPECT_GT(ind.delay_p99_ms, ind.round_trip_delay_ms / 2.0);
}

}  // namespace
}  // namespace arpanet::sim
