#include "src/net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/routing/spf.h"

namespace arpanet::net {
namespace {

TEST(TopologyTest, AddNodeAssignsDenseIds) {
  Topology t;
  EXPECT_EQ(t.add_node("a"), 0u);
  EXPECT_EQ(t.add_node("b"), 1u);
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.node_name(0), "a");
  EXPECT_EQ(t.node_by_name("b"), 1u);
}

TEST(TopologyTest, DuplicateNameThrows) {
  Topology t;
  t.add_node("a");
  EXPECT_THROW(t.add_node("a"), std::invalid_argument);
}

TEST(TopologyTest, UnknownNameThrows) {
  Topology t;
  t.add_node("a");
  EXPECT_THROW((void)t.node_by_name("zz"), std::out_of_range);
}

TEST(TopologyTest, DuplexCreatesTwoSimplexLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const LinkId fwd = t.add_duplex(a, b, LineType::kTerrestrial56);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.trunk_count(), 1u);
  const Link& f = t.link(fwd);
  const Link& r = t.link(f.reverse);
  EXPECT_EQ(f.from, a);
  EXPECT_EQ(f.to, b);
  EXPECT_EQ(r.from, b);
  EXPECT_EQ(r.to, a);
  EXPECT_EQ(r.reverse, fwd);
  EXPECT_EQ(f.rate, info(LineType::kTerrestrial56).rate);
}

TEST(TopologyTest, DefaultPropDelayFromLineType) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const LinkId sat = t.add_duplex(a, b, LineType::kSatellite56);
  EXPECT_EQ(t.link(sat).prop_delay, info(LineType::kSatellite56).default_prop_delay);
}

TEST(TopologyTest, PropDelayOverride) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const LinkId l =
      t.add_duplex(a, b, LineType::kTerrestrial56, util::SimTime::from_ms(25));
  EXPECT_EQ(t.link(l).prop_delay, util::SimTime::from_ms(25));
}

TEST(TopologyTest, SelfLoopThrows) {
  Topology t;
  const NodeId a = t.add_node("a");
  EXPECT_THROW(t.add_duplex(a, a, LineType::kTerrestrial56), std::invalid_argument);
}

TEST(TopologyTest, OutOfRangeNodeThrows) {
  Topology t;
  const NodeId a = t.add_node("a");
  EXPECT_THROW(t.add_duplex(a, 7, LineType::kTerrestrial56), std::out_of_range);
}

TEST(TopologyTest, OutLinks) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId c = t.add_node("c");
  t.add_duplex(a, b, LineType::kTerrestrial56);
  t.add_duplex(a, c, LineType::kTerrestrial56);
  EXPECT_EQ(t.out_links(a).size(), 2u);
  EXPECT_EQ(t.out_links(b).size(), 1u);
}

TEST(TopologyTest, InLinksPairWithOutTargets) {
  // in_links(v)[i] is the link out_targets(v)[i] -> v, i.e. the reverse of
  // out_links(v)[i], and every link is some node's in-link exactly once.
  const Topology t = build_topology("arpanet87");
  std::vector<int> seen(t.link_count(), 0);
  for (NodeId v = 0; v < t.node_count(); ++v) {
    const auto ins = t.in_links(v);
    const auto tos = t.out_targets(v);
    const auto outs = t.out_links(v);
    ASSERT_EQ(ins.size(), tos.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const Link& in = t.link(ins[i]);
      EXPECT_EQ(in.from, tos[i]);
      EXPECT_EQ(in.to, v);
      EXPECT_EQ(in.reverse, outs[i]);
      ++seen[ins[i]];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(TopologyTest, LinkBetweenFindsTheTrunkInEitherDirection) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId c = t.add_node("c");
  t.add_duplex(a, c, LineType::kTerrestrial56);
  const LinkId ab = t.add_duplex(a, b, LineType::kSatellite56);
  EXPECT_EQ(t.link_between(a, b), ab);
  const LinkId ba = t.link_between(b, a);
  EXPECT_EQ(ba, t.link(ab).reverse);
  EXPECT_EQ(t.link(ba).from, b);
  EXPECT_EQ(t.link(ba).to, a);
  EXPECT_EQ(t.link_between(b, c), kInvalidLink);  // no trunk
  EXPECT_EQ(t.link_between(a, a), kInvalidLink);
}

TEST(TopologyTest, Connectivity) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  t.add_node("c");  // isolated
  t.add_duplex(a, b, LineType::kTerrestrial56);
  EXPECT_FALSE(t.is_connected());
}

TEST(LineTypeTest, TableIsComplete) {
  for (int i = 0; i < kLineTypeCount; ++i) {
    const LineTypeInfo& ti = all_line_types()[i];
    EXPECT_EQ(static_cast<int>(ti.type), i);
    EXPECT_FALSE(to_string(ti.type).empty());
    EXPECT_GT(ti.rate.bits_per_sec(), 0.0);
  }
}

TEST(LineTypeTest, SatelliteHasLongPropagation) {
  EXPECT_GT(info(LineType::kSatellite56).default_prop_delay,
            info(LineType::kTerrestrial56).default_prop_delay * 10);
  EXPECT_TRUE(info(LineType::kSatellite9_6).satellite);
  EXPECT_FALSE(info(LineType::kMultiTrunk112).satellite);
}

// ---- builders ----

TEST(BuildersTest, TwoRegionShape) {
  const Topology t = build_topology("two-region:per_region=6");
  EXPECT_EQ(t.node_count(), 12u);
  EXPECT_TRUE(t.is_connected());
  // Region 1 is A0..A5 (ids 0..5), region 2 is B0..B5 (ids 6..11).
  for (NodeId n = 0; n < 6; ++n) {
    EXPECT_EQ(t.node_name(n), "A" + std::to_string(n));
    EXPECT_EQ(t.node_name(n + 6), "B" + std::to_string(n));
  }
  const LinkId link_a =
      t.link_between(t.node_by_name("A0"), t.node_by_name("B0"));
  const LinkId link_b =
      t.link_between(t.node_by_name("A3"), t.node_by_name("B3"));
  ASSERT_NE(link_a, kInvalidLink);
  ASSERT_NE(link_b, kInvalidLink);
  // Same bandwidth and propagation delay, as figure 1 requires.
  EXPECT_EQ(t.link(link_a).rate, t.link(link_b).rate);
  EXPECT_EQ(t.link(link_a).prop_delay, t.link(link_b).prop_delay);
  // A and B are the only inter-region trunks.
  std::vector<LinkId> crossing;
  for (const Link& l : t.links()) {
    if (l.from < 6 && l.to >= 6) crossing.push_back(l.id);
  }
  EXPECT_EQ(crossing, (std::vector<LinkId>{link_a, link_b}));
}

TEST(BuildersTest, Arpanet87Shape) {
  const Topology topo = build_topology("arpanet87");
  EXPECT_EQ(topo.node_count(), 47u);
  EXPECT_EQ(topo.trunk_count(), 75u);
  EXPECT_TRUE(topo.is_connected());
  // Every node has at least two trunks (survivability).
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_GE(topo.out_links(n).size(), 2u) << topo.node_name(n);
  }
  // Average degree around 3, like the real ARPANET.
  const double avg_degree =
      2.0 * static_cast<double>(topo.trunk_count()) /
      static_cast<double>(topo.node_count());
  EXPECT_GT(avg_degree, 2.5);
  EXPECT_LT(avg_degree, 3.5);
}

/// "The ARPANET topology is rich with alternate paths" (section 5.2): no
/// trunk may be a bridge — every route must have an alternate that avoids
/// any single trunk.
TEST(BuildersTest, Arpanet87HasNoBridgeTrunks) {
  const Topology t = build_topology("arpanet87");
  for (std::size_t trunk = 0; trunk < t.link_count(); trunk += 2) {
    // BFS that refuses to cross either direction of this trunk.
    std::vector<bool> seen(t.node_count(), false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const LinkId l : t.out_links(n)) {
        if (l == trunk || l == trunk + 1) continue;
        const NodeId m = t.link(l).to;
        if (!seen[m]) {
          seen[m] = true;
          ++reached;
          stack.push_back(m);
        }
      }
    }
    EXPECT_EQ(reached, t.node_count())
        << "bridge trunk: " << t.node_name(t.link(trunk).from) << " - "
        << t.node_name(t.link(trunk).to);
  }
}

/// Mean minimum path length should resemble Table 1's ~3.2-4.0 hops.
TEST(BuildersTest, Arpanet87PathLengthsResembleTable1) {
  const Topology topo = build_topology("arpanet87");
  const auto d = routing::min_hop_lengths(topo);
  double sum = 0;
  int pairs = 0;
  int diameter = 0;
  for (NodeId s = 0; s < topo.node_count(); ++s) {
    for (NodeId t2 = 0; t2 < topo.node_count(); ++t2) {
      if (s == t2) continue;
      sum += d.at(s, t2);
      diameter = std::max<int>(diameter, d.at(s, t2));
      ++pairs;
    }
  }
  const double mean = sum / pairs;
  EXPECT_GT(mean, 2.8);
  EXPECT_LT(mean, 4.5);
  EXPECT_LE(diameter, 12);
}

TEST(BuildersTest, Arpanet87HasHeterogeneousTrunking) {
  const Topology topo = build_topology("arpanet87");
  int sat = 0;
  int slow = 0;
  int multi = 0;
  for (const Link& l : topo.links()) {
    if (info(l.type).satellite) ++sat;
    if (l.type == LineType::kTerrestrial9_6) ++slow;
    if (l.type == LineType::kMultiTrunk112) ++multi;
  }
  EXPECT_GT(sat, 0);
  EXPECT_GT(slow, 0);
  EXPECT_GT(multi, 0);
}

TEST(BuildersTest, RingAndGrid) {
  const Topology r = build_topology("ring:nodes=5");
  EXPECT_EQ(r.node_count(), 5u);
  EXPECT_EQ(r.trunk_count(), 5u);
  EXPECT_TRUE(r.is_connected());

  const Topology g = build_topology("grid:width=3,height=4");
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.trunk_count(), 17u);  // 2*w*h - w - h
  EXPECT_TRUE(g.is_connected());
}

TEST(BuildersTest, RandomConnectedIsConnectedAndDeterministic) {
  const Topology a = build_topology("random:nodes=20,extra=10,seed=123");
  const Topology b = build_topology("random:nodes=20,extra=10,seed=123");
  EXPECT_TRUE(a.is_connected());
  EXPECT_EQ(a.trunk_count(), b.trunk_count());
  for (std::size_t i = 0; i < a.link_count(); ++i) {
    EXPECT_EQ(a.link(i).from, b.link(i).from);
    EXPECT_EQ(a.link(i).to, b.link(i).to);
  }
}

}  // namespace
}  // namespace arpanet::net
