// The fault engine's verification battery (ISSUE 8 tentpole):
//
//   * Differential: a fault plan whose net effect is identity (a flap that
//     fully heals during warm-up) reconverges to byte-identical routing
//     state — per-PSN cost maps, SPF trees, reported costs — of the
//     fault-free run.
//   * Determinism: a sweep with faults active produces byte-identical CSV
//     and identical stability telemetry on 1 and 4 worker threads.
//   * Property: randomized fault plans (>= 200 plan x seed combinations
//     across two topologies) keep every paper invariant intact through
//     every transition — the in-run ARPA_CHECK layer (cost bounds,
//     movement limits, flat region) plus the end-of-run partition-aware
//     self-audit.
//   * Partition audit: a mid-partition network passes audit_network (the
//     old full-reachability assumption was a false positive) and the
//     component-aware route check sees both sides.
//   * Dispatch: a flap, a node crash and a line upgrade each fire once per
//     compiled action and move link state as scheduled — the upgrade swaps
//     both simplex halves' type and rate at its instant.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/net/line_type.h"
#include "src/net/builders/registry.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/rng.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

SimTime sec(double s) { return SimTime::from_sec(s); }

NetworkConfig hnspf_config() {
  NetworkConfig cfg;
  cfg.metric = metrics::MetricKind::kHnSpf;
  return cfg;
}

/// Asserts every piece of routing state two networks expose is identical:
/// each PSN's cost map, SPF tree (distances, parents, first hops) and each
/// link's reported cost. Exact ==, no tolerance: reconvergence after an
/// identity fault plan must reproduce the fault-free bytes.
void expect_routing_state_identical(const Network& a, const Network& b) {
  const net::Topology& topo = a.topology();
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    const auto costs_a = a.psn(n).spf().costs();
    const auto costs_b = b.psn(n).spf().costs();
    ASSERT_EQ(costs_a.size(), costs_b.size());
    for (std::size_t l = 0; l < costs_a.size(); ++l) {
      EXPECT_EQ(costs_a[l], costs_b[l])
          << "PSN " << n << " cost map differs at link " << l;
    }
    const routing::SpfTree& ta = a.psn(n).tree();
    const routing::SpfTree& tb = b.psn(n).tree();
    for (net::NodeId v = 0; v < topo.node_count(); ++v) {
      EXPECT_EQ(ta.dist[v], tb.dist[v]) << "PSN " << n << " dist to " << v;
      EXPECT_EQ(ta.first_hop[v], tb.first_hop[v])
          << "PSN " << n << " first hop to " << v;
      EXPECT_EQ(ta.parent_link[v], tb.parent_link[v])
          << "PSN " << n << " parent of " << v;
    }
  }
  for (const net::Link& link : topo.links()) {
    EXPECT_EQ(a.psn(link.from).reported_cost(link.id),
              b.psn(link.from).reported_cost(link.id))
        << "reported cost differs on link " << link.id;
  }
}

// ---------------------------------------------------------------------------
// Differential test: identity fault plan == fault-free run.

TEST(FaultDifferentialTest, HealedFlapReconvergesToFaultFreeBytes) {
  const net::Topology topo = net::build_topology("ring:nodes=6");

  // No offered load: the runs differ only in the fault plan, and both end
  // on the idle steady state (every link at its metric minimum). 250 s
  // gives the healed link's metric 190 s to decay back (4 periods) and
  // every significance filter to pass several forced-report cycles.
  Network plain{topo, hnspf_config()};
  plain.run_for(sec(250));

  Network flapped{topo, hnspf_config()};
  FaultPlan plan;
  plan.flap_link(2, sec(30), sec(30));  // down 30 s, healed at t=60
  flapped.install_faults(plan, sec(250));
  flapped.run_for(sec(250));

  EXPECT_TRUE(flapped.link_admin_up(2));
  expect_routing_state_identical(plain, flapped);
}

TEST(FaultDifferentialTest, HealedCrashReconvergesToFaultFreeBytes) {
  const net::Topology topo = net::build_topology("grid:width=3,height=3");

  Network plain{topo, hnspf_config()};
  plain.run_for(sec(250));

  Network crashed{topo, hnspf_config()};
  FaultPlan plan;
  plan.crash_node(4, sec(30), sec(25));  // the grid center, restored at t=55
  crashed.install_faults(plan, sec(250));
  crashed.run_for(sec(250));

  expect_routing_state_identical(plain, crashed);
}

// ---------------------------------------------------------------------------
// Sweep determinism with faults active: byte-identical CSV and identical
// stability telemetry at 1 vs 4 worker threads.

TEST(FaultDeterminismTest, SweepWithFaultsIsThreadCountInvariant) {
  exp::SweepSpec spec;
  spec.base = ScenarioConfig{}
                  .with_shape(TrafficShape::kUniform)
                  .with_load_bps(150e3)
                  .with_warmup(sec(15))
                  .with_window(sec(40))
                  .with_faults("flap:link=2,at_s=20,dwell_s=6");
  spec.over_metrics({metrics::MetricKind::kHnSpf, metrics::MetricKind::kDspf})
      .over_seeds({1, 2, 3});
  const exp::NamedTopology topo{"ring6", net::build_topology("ring:nodes=6")};

  exp::SweepOptions serial;
  serial.threads = 1;
  exp::SweepOptions parallel;
  parallel.threads = 4;
  const exp::SweepResult r1 = exp::SweepRunner{serial}.run(spec, topo);
  const exp::SweepResult r4 = exp::SweepRunner{parallel}.run(spec, topo);

  EXPECT_EQ(r1.csv(), r4.csv());
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const StabilityStats& s1 = r1.at(i).result.stability;
    const StabilityStats& s4 = r4.at(i).result.stability;
    EXPECT_EQ(s1.faults_applied, 2) << "cell " << i;  // down + up, in-window
    EXPECT_EQ(s1.faults_applied, s4.faults_applied) << "cell " << i;
    EXPECT_EQ(s1.route_changes, s4.route_changes) << "cell " << i;
    EXPECT_EQ(s1.flat_oscillations, s4.flat_oscillations) << "cell " << i;
    EXPECT_EQ(s1.max_movement, s4.max_movement) << "cell " << i;
    EXPECT_EQ(s1.reconverge_sec, s4.reconverge_sec) << "cell " << i;
    EXPECT_GT(s1.route_changes, 0) << "cell " << i
                                   << ": a flap must move some first hop";
  }
}

// ---------------------------------------------------------------------------
// Partition-aware audit (ISSUE 8 satellite 1): a legitimately partitioned
// network passes audit_network; the old audit assumed full reachability.

TEST(FaultPartitionAuditTest, MidPartitionAuditDoesNotFalsePositive) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  Network net{topo, hnspf_config()};
  FaultPlan plan;
  plan.partition({0}, {3}, sec(30), sec(40));  // heals at t=70
  net.install_faults(plan, sec(120));

  // Stop mid-partition, off the 10 s measurement grid so no flood is in
  // flight and the quiescence-gated route audit actually runs.
  net.run_for(sec(57.3));
  ASSERT_EQ(net.updates_in_flight(), 0u);

  const analysis::AuditStats stats = analysis::audit_network(net);
  EXPECT_GT(stats.trees_checked, 0);
  // 6 nodes, all ordered pairs route-audited, cross-component included.
  EXPECT_EQ(stats.routes_checked, 30);

  // The cut really split the ring: some trunk is administratively down.
  int down_trunks = 0;
  for (const net::Link& l : topo.links()) {
    if (l.id < l.reverse && !net.link_admin_up(l.id)) ++down_trunks;
  }
  EXPECT_EQ(down_trunks, 2);

  // After the heal the same audit still passes and all trunks are up.
  net.run_for(sec(60));
  const analysis::AuditStats healed = analysis::audit_network(net);
  EXPECT_EQ(healed.routes_checked, 30);
  for (const net::Link& l : topo.links()) {
    EXPECT_TRUE(net.link_admin_up(l.id));
  }
}

// ---------------------------------------------------------------------------
// Fault dispatch: every compiled action fires once as one kFaultAction
// event, applies both trunk halves in place, and is counted once.

TEST(FaultDispatchTest, FlapCrashAndUpgradeApplyOncePerCompiledAction) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  // Three disjoint trunk sets: the flap on 0-1, the crash on node 3 (trunks
  // 2-3 and 3-4), the upgrade on 4-5.
  const net::LinkId flapped = topo.link_between(0, 1);
  const net::LinkId upgraded = topo.link_between(4, 5);
  ASSERT_NE(flapped, net::kInvalidLink);
  ASSERT_NE(upgraded, net::kInvalidLink);
  const SimTime warmup = sec(20);
  const SimTime horizon = warmup + sec(60);
  const SimTime upgrade_at = warmup + sec(30);
  FaultPlan plan;
  plan.flap_link(flapped, warmup + sec(5), sec(8));
  plan.crash_node(3, warmup + sec(15), sec(10));
  plan.upgrade_line(upgraded, upgrade_at, net::LineType::kMultiTrunk112);

  Network net{topo, hnspf_config()};
  net.install_faults(plan, horizon);
  net.add_traffic(traffic::TrafficMatrix::uniform(topo.node_count(), 60e3));
  net.run_for(warmup);
  net.reset_stats();
  EXPECT_TRUE(net.link_admin_up(flapped));

  net.run_until(warmup + sec(8));  // mid-flap
  EXPECT_FALSE(net.link_admin_up(flapped));
  EXPECT_FALSE(net.link_admin_up(topo.link(flapped).reverse));
  net.run_until(warmup + sec(20));  // flap healed, node 3 down
  EXPECT_TRUE(net.link_admin_up(flapped));
  EXPECT_TRUE(net.link_admin_up(topo.link(flapped).reverse));
  for (const net::LinkId l : topo.out_links(3)) {
    EXPECT_FALSE(net.link_admin_up(l));
    EXPECT_FALSE(net.link_admin_up(topo.link(l).reverse));
  }
  // Flap down/up and crash down/up have fired; the upgrade has not.
  const net::LineType original = topo.link(upgraded).type;
  ASSERT_NE(original, net::LineType::kMultiTrunk112);
  net.run_until(upgrade_at - sec(0.001));
  EXPECT_EQ(net.stability().faults_applied, 4);
  for (const net::LinkId half : {upgraded, topo.link(upgraded).reverse}) {
    EXPECT_EQ(net.effective_link(half).type, original);
  }
  net.run_until(upgrade_at);
  EXPECT_EQ(net.stability().faults_applied, 5);
  for (const net::LinkId half : {upgraded, topo.link(upgraded).reverse}) {
    EXPECT_EQ(net.effective_link(half).type, net::LineType::kMultiTrunk112);
    EXPECT_EQ(net.effective_link(half).rate,
              net::info(net::LineType::kMultiTrunk112).rate);
  }
  net.run_until(horizon);

  long in_window = 0;
  for (const FaultAction& a : plan.compile(topo, horizon)) {
    if (a.at >= warmup && a.at <= horizon) ++in_window;
  }
  EXPECT_EQ(in_window, 5);  // flap down/up, crash down/up, upgrade
  EXPECT_EQ(net.stability().faults_applied, in_window);
  for (const net::Link& l : topo.links()) {
    EXPECT_TRUE(net.link_admin_up(l.id));
  }

  // Settle, then audit: any violated invariant aborts.
  net.stop_traffic();
  for (int i = 0; i < 30 && net.updates_in_flight() > 0; ++i) {
    net.run_for(sec(0.7));
  }
  ASSERT_EQ(net.updates_in_flight(), 0u);
  EXPECT_GT(analysis::audit_network(net).trees_checked, 0);
}

// ---------------------------------------------------------------------------
// Property sweep: randomized fault plans x seeds, every paper invariant
// enforced through every transition (the PSN's in-run ARPA_CHECK layer and
// the end-of-run partition-aware self-audit both stay armed).

FaultPlan random_plan(util::Rng& rng, const net::Topology& topo) {
  FaultPlan plan;
  const int fault_count = 1 + static_cast<int>(rng.uniform_index(3));
  for (int k = 0; k < fault_count; ++k) {
    // Disjoint 11 s slots keep per-trunk down-intervals non-overlapping by
    // construction (the compiler would reject overlap as invalid).
    const double at = 12.0 + 11.0 * k + rng.uniform(0.0, 1.0);
    const double dwell = rng.uniform(2.0, 8.0);
    const auto node =
        static_cast<net::NodeId>(rng.uniform_index(topo.node_count()));
    const auto peer = static_cast<net::NodeId>(
        (node + 1 + rng.uniform_index(topo.node_count() - 1)) %
        topo.node_count());
    switch (rng.uniform_index(5)) {
      case 0:
        plan.flap_link(
            static_cast<net::LinkId>(rng.uniform_index(topo.link_count())),
            sec(at), sec(dwell));
        break;
      case 1:
        plan.crash_node(node, sec(at), sec(dwell));
        break;
      case 2:
        plan.regional_outage({node}, sec(at), sec(dwell));
        break;
      case 3:
        plan.partition({node}, {peer}, sec(at), sec(dwell));
        break;
      default:
        plan.upgrade_line(
            static_cast<net::LinkId>(rng.uniform_index(topo.link_count())),
            sec(at),
            net::all_line_types()[rng.uniform_index(net::kLineTypeCount)].type);
        break;
    }
  }
  return plan;
}

void run_property_sweep(const net::Topology& topo, const std::string& name,
                        std::uint64_t seed_base, int runs) {
  for (int i = 0; i < runs; ++i) {
    util::Rng rng{seed_base + static_cast<std::uint64_t>(i)};
    const FaultPlan plan = random_plan(rng, topo);
    ScenarioConfig cfg = ScenarioConfig{}
                             .with_shape(TrafficShape::kUniform)
                             .with_load_bps(120e3)
                             .with_warmup(sec(10))
                             .with_window(sec(37))
                             .with_seed(seed_base ^ (7919u * i))
                             .with_faults(plan);
    // The network checks every report and period, and run_scenario audits
    // the end state: any violated bound, period or report-to-report
    // movement limit, flat region or tree inconsistency aborts the run.
    const ScenarioResult result = run_scenario(topo, cfg, name);
    EXPECT_GT(result.stats.packets_delivered, 0)
        << name << " seed " << i << ": nothing delivered";
    EXPECT_GT(result.stability.faults_applied, 0)
        << name << " seed " << i << ": no fault action fired in the window";
    EXPECT_GT(result.audit.trees_checked, 0)
        << name << " seed " << i << ": self-audit did not run";
  }
}

TEST(FaultPropertyTest, RandomPlansOnRingHoldAllInvariants) {
  run_property_sweep(net::build_topology("ring:nodes=6"), "ring6", 0x8a5fULL,
                     100);
}

TEST(FaultPropertyTest, RandomPlansOnGridHoldAllInvariants) {
  run_property_sweep(net::build_topology("grid:width=3,height=3"), "grid3x3",
                     0x1987ULL, 100);
}

}  // namespace
}  // namespace arpanet::sim
