// FaultPlan unit battery: string-spec parsing, fluent construction,
// compilation to primitive actions (flap repetition, regional-outage trunk
// dedup, min-cut partitions, upgrade passthrough), and — via death tests —
// the ARPA_CHECK validation rules: nonexistent links/nodes, overlapping
// down-intervals on one trunk (within and across fault kinds), and events
// scheduled past the scenario end.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/sim/fault_plan.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

SimTime sec(double s) { return SimTime::from_sec(s); }

// ---------------------------------------------------------------------------
// Parsing

TEST(FaultPlanParse, FlapSweepForm) {
  const FaultPlan plan = FaultPlan::parse("flap:link=3,period_s=10,dwell_s=2");
  ASSERT_EQ(plan.size(), 1u);
  const FaultSpec& s = plan.specs()[0];
  EXPECT_EQ(s.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(s.link, 3u);
  EXPECT_EQ(s.dwell, sec(2));
  EXPECT_EQ(s.period, sec(10));
  // at_s defaults to period_s, count to 0 (= until horizon) when repeating.
  EXPECT_EQ(s.at, sec(10));
  EXPECT_EQ(s.count, 0);
}

TEST(FaultPlanParse, SingleFlapDefaults) {
  const FaultPlan plan = FaultPlan::parse("flap:link=2,at_s=24,dwell_s=6");
  ASSERT_EQ(plan.size(), 1u);
  const FaultSpec& s = plan.specs()[0];
  EXPECT_EQ(s.at, sec(24));
  EXPECT_EQ(s.period, SimTime::zero());
  EXPECT_EQ(s.count, 1);
}

TEST(FaultPlanParse, AllKindsAndMultiFault) {
  const FaultPlan plan = FaultPlan::parse(
      "crash:node=4,at_s=30,dwell_s=10;"
      "outage:nodes=1+2+5,at_s=50,dwell_s=5;"
      "partition:a=0+1,b=3+4,at_s=60,dwell_s=5;"
      "upgrade:link=1,at_s=70,type=112kb-multitrunk");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kNodeCrash);
  EXPECT_EQ(plan.specs()[0].node, 4u);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kRegionalOutage);
  EXPECT_EQ(plan.specs()[1].region, (std::vector<net::NodeId>{1, 2, 5}));
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.specs()[2].side_a, (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(plan.specs()[2].side_b, (std::vector<net::NodeId>{3, 4}));
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::kLineUpgrade);
  EXPECT_EQ(plan.specs()[3].new_type, net::LineType::kMultiTrunk112);
}

TEST(FaultPlanParse, MalformedSpecsThrow) {
  EXPECT_THROW((void)FaultPlan::parse("flap"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("meteor:node=1,at_s=1,dwell_s=1"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("flap:dwell_s=2"),  // link missing
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("flap:link=1,dwell_s=abc"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("flap:link=1,dwell_s=2,bogus=3"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("flap:link=1,dwell_s=2,link=1"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("upgrade:link=1,at_s=1,type=4mb-fiber"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("outage:nodes=,at_s=1,dwell_s=1"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Compilation

TEST(FaultPlanCompile, SingleFlapEmitsDownUpPair) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(2, sec(24), sec(6));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(60));
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].op, FaultAction::Op::kLinkDown);
  EXPECT_EQ(actions[0].at, sec(24));
  EXPECT_EQ(actions[0].link, 2u);
  EXPECT_EQ(actions[1].op, FaultAction::Op::kLinkUp);
  EXPECT_EQ(actions[1].at, sec(30));
}

TEST(FaultPlanCompile, RepeatingFlapRunsUntilHorizon) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(10), sec(2), sec(10), /*count=*/0);
  const std::vector<FaultAction> actions = plan.compile(topo, sec(45));
  // Occurrences at 10, 20, 30, 40: 40+2 <= 45 still fits; 50 does not.
  ASSERT_EQ(actions.size(), 8u);
  EXPECT_EQ(actions.front().at, sec(10));
  EXPECT_EQ(actions.back().at, sec(42));
  // Time-sorted, alternating down/up for a single flapped trunk.
  for (std::size_t i = 1; i < actions.size(); ++i) {
    EXPECT_GE(actions[i].at, actions[i - 1].at);
  }
}

TEST(FaultPlanCompile, CountedFlapEmitsExactly) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(5), sec(1), sec(4), /*count=*/3);
  EXPECT_EQ(plan.compile(topo, sec(60)).size(), 6u);
}

TEST(FaultPlanCompile, CrashEmitsNodeActions) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.crash_node(4, sec(10), sec(5));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(30));
  ASSERT_EQ(actions.size(), 2u);
  EXPECT_EQ(actions[0].op, FaultAction::Op::kNodeDown);
  EXPECT_EQ(actions[0].node, 4u);
  EXPECT_EQ(actions[1].op, FaultAction::Op::kNodeUp);
}

TEST(FaultPlanCompile, RegionalOutageDeduplicatesInteriorTrunks) {
  // Nodes 1 and 2 are ring neighbors: the trunk between them touches both,
  // but must be taken down exactly once. Ring degree 2 => trunks {0-1},
  // {1-2}, {2-3}: three down + three up actions.
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.regional_outage({1, 2}, sec(10), sec(5));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(30));
  ASSERT_EQ(actions.size(), 6u);
  std::vector<net::LinkId> downed;
  for (const FaultAction& a : actions) {
    if (a.op == FaultAction::Op::kLinkDown) downed.push_back(a.link);
  }
  std::sort(downed.begin(), downed.end());
  EXPECT_EQ(downed.size(), 3u);
  EXPECT_EQ(std::adjacent_find(downed.begin(), downed.end()), downed.end())
      << "a trunk interior to the region was downed twice";
}

TEST(FaultPlanCompile, PartitionCutsRingInTwoPlaces) {
  // Separating opposite ring nodes requires cutting exactly two trunks.
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.partition({0}, {3}, sec(10), sec(5));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(30));
  ASSERT_EQ(actions.size(), 4u);  // two trunks x (down + up)
  int downs = 0;
  for (const FaultAction& a : actions) {
    if (a.op == FaultAction::Op::kLinkDown) ++downs;
  }
  EXPECT_EQ(downs, 2);
}

TEST(FaultPlanCompile, PartitionGridMinCutMatchesCornerDegree) {
  // Cutting a 3x3 grid corner from the opposite corner severs exactly the
  // corner's two trunks — the min cut, not any larger separator.
  const net::Topology topo = net::build_topology("grid:width=3,height=3");
  FaultPlan plan;
  plan.partition({0}, {8}, sec(10), sec(5));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(30));
  EXPECT_EQ(actions.size(), 4u);
}

TEST(FaultPlanCompile, UpgradeEmitsOneAction) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.upgrade_line(1, sec(15), net::LineType::kMultiTrunk224);
  const std::vector<FaultAction> actions = plan.compile(topo, sec(30));
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].op, FaultAction::Op::kUpgrade);
  EXPECT_EQ(actions[0].new_type, net::LineType::kMultiTrunk224);
}

TEST(FaultPlanCompile, ActionsAreTimeSortedAcrossFaults) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.crash_node(4, sec(20), sec(5));
  plan.flap_link(0, sec(5), sec(2));
  const std::vector<FaultAction> actions = plan.compile(topo, sec(40));
  ASSERT_EQ(actions.size(), 4u);
  for (std::size_t i = 1; i < actions.size(); ++i) {
    EXPECT_GE(actions[i].at, actions[i - 1].at);
  }
  EXPECT_EQ(actions[0].op, FaultAction::Op::kLinkDown);
  EXPECT_EQ(actions[1].op, FaultAction::Op::kLinkUp);
  EXPECT_EQ(actions[2].op, FaultAction::Op::kNodeDown);
}

// ---------------------------------------------------------------------------
// Validation death tests (ISSUE 8 satellite: invalid FaultPlans abort via
// ARPA_CHECK with attributable messages).

using FaultPlanDeathTest = ::testing::Test;

TEST(FaultPlanDeathTest, FaultOnNonexistentLinkDies) {
  // 12 simplex links.
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(99, sec(5), sec(2));
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "nonexistent link");
}

TEST(FaultPlanDeathTest, CrashOnNonexistentNodeDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.crash_node(42, sec(5), sec(2));
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "nonexistent node");
}

TEST(FaultPlanDeathTest, OverlappingDownIntervalsDie) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(5), sec(10));
  plan.flap_link(0, sec(8), sec(10));  // second down lands mid-first-dwell
  EXPECT_DEATH((void)plan.compile(topo, sec(60)),
               "overlapping down-intervals on trunk");
}

TEST(FaultPlanDeathTest, CrossKindOverlapOnAdjacentTrunkDies) {
  // A crash of node 0 holds its adjacent trunks down; a flap of one of
  // those trunks over the same interval must be rejected even though the
  // two faults are of different kinds.
  const net::Topology topo = net::build_topology("ring:nodes=6");
  const net::LinkId adjacent = topo.out_links(0)[0];
  FaultPlan plan;
  plan.crash_node(0, sec(10), sec(10));
  plan.flap_link(adjacent, sec(15), sec(2));
  EXPECT_DEATH((void)plan.compile(topo, sec(60)),
               "overlapping down-intervals on trunk");
}

TEST(FaultPlanDeathTest, RepeatingFlapWithPeriodNotExceedingDwellDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(5), sec(3), sec(3), /*count=*/0);
  EXPECT_DEATH((void)plan.compile(topo, sec(60)),
               "overlapping down-intervals");
}

TEST(FaultPlanDeathTest, EventPastScenarioEndDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(25), sec(10));  // heals at 35 > horizon 30
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "past scenario end");
}

TEST(FaultPlanDeathTest, UpgradePastScenarioEndDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.upgrade_line(0, sec(35), net::LineType::kTerrestrial9_6);
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "past scenario end");
}

TEST(FaultPlanDeathTest, ZeroDwellDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.flap_link(0, sec(5), SimTime::zero());
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "dwell must be > 0");
}

TEST(FaultPlanDeathTest, PartitionWithOverlappingSidesDies) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  FaultPlan plan;
  plan.partition({0, 1}, {1, 3}, sec(5), sec(2));
  EXPECT_DEATH((void)plan.compile(topo, sec(30)), "sides overlap");
}

}  // namespace
}  // namespace arpanet::sim
