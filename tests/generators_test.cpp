// The generated topology families (src/net/builders/registry.h): the
// registry front door, per-family determinism (same GraphSpec + seed =>
// byte-identical graph), structural sanity per family, the CSR adjacency's
// consistency with the link records, and the prop_us round trip that keeps
// generated delays lossless through topology_io.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/net/dot_export.h"
#include "src/net/graph_spec.h"
#include "src/net/topology_io.h"
#include "src/routing/flooding.h"
#include "src/routing/spf.h"

namespace arpanet::net {
namespace {

Topology build(const GraphSpec& spec) {
  return TopologyBuilder::registry().build(spec);
}

// ---- determinism: same GraphSpec + seed, same graph ----

TEST(GeneratorsTest, EveryFamilyIsByteDeterministic) {
  for (const TopologyBuilder::FamilyInfo& family :
       TopologyBuilder::registry().families()) {
    const GraphSpec spec = GraphSpec{std::string(family.name)}.with_seed(7);
    const std::string once = topology_to_string(build(spec));
    const std::string twice = topology_to_string(build(spec));
    EXPECT_EQ(once, twice) << spec.label();
  }
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The paper's networks and the small synthetic shapes at the specs the
// benches, tools and tests build: node names, ids, link ids, line types and
// delays are pinned as an FNV-1a hash of the serialized graph.
TEST(GeneratorsTest, ClassicFamiliesKeepTheirBytes) {
  const struct {
    const char* spec;
    std::uint64_t hash;
  } pinned[] = {
      {"ring:nodes=6", 0x0b9776edc54206bcULL},
      {"grid:width=3,height=3", 0x407a194e4536e0a3ULL},
      {"grid:width=5,height=5", 0x7fd54aa2f1b6590fULL},
      {"two-region:per_region=6", 0xd53708cbb5741881ULL},
      {"arpanet87", 0x3a24d14e04605b13ULL},
      {"milnet", 0xdb5161f12ae6f804ULL},
      {"random:nodes=14,extra=10,seed=77", 0x7a0459a4a41a51b4ULL},
      {"clustered:clusters=4,per_cluster=8,seed=5", 0x763a53d52358c210ULL},
  };
  for (const auto& [spec, hash] : pinned) {
    EXPECT_EQ(fnv1a(topology_to_string(build_topology(spec))), hash) << spec;
  }
}

TEST(GeneratorsTest, SeedChangesTheRandomFamilies) {
  const GraphSpec bases[] = {
      GraphSpec{"ba"}.with_nodes(200).with_param("m", 2),
      GraphSpec{"random"}.with_nodes(20).with_param("extra", 10),
      GraphSpec{"clustered"}.with_param("clusters", 4).with_param(
          "per_cluster", 8),
  };
  for (const GraphSpec& base : bases) {
    const std::string s1 =
        topology_to_string(build(GraphSpec{base}.with_seed(1)));
    const std::string s2 =
        topology_to_string(build(GraphSpec{base}.with_seed(2)));
    EXPECT_NE(s1, s2) << base.family();
  }
}

// ---- structural sanity per family ----

TEST(GeneratorsTest, EveryFamilyBuildsAConnectedGraph) {
  const GraphSpec specs[] = {
      GraphSpec{"hier-as"}.with_nodes(500).with_seed(3),
      GraphSpec{"waxman"}.with_nodes(200).with_seed(3),
      GraphSpec{"ba"}.with_nodes(400).with_seed(3),
      GraphSpec{"fat-tree"}.with_nodes(245),
      GraphSpec{"leo-grid"}.with_nodes(100),
  };
  for (const GraphSpec& spec : specs) {
    const Topology topo = build(spec);
    EXPECT_TRUE(topo.is_connected()) << spec.label();
    EXPECT_GT(topo.node_count(), 0u) << spec.label();
  }
}

// Topology::add_duplex rejects a delay above kMaxPropDelay; no family may
// need one at its default parameters.
TEST(GeneratorsTest, EveryFamilyKeepsDelaysUnderTheBound) {
  for (const TopologyBuilder::FamilyInfo& family :
       TopologyBuilder::registry().families()) {
    const Topology topo = build(GraphSpec{std::string(family.name)});
    for (const Link& link : topo.links()) {
      EXPECT_GE(link.prop_delay, util::SimTime::zero()) << family.name;
      EXPECT_LE(link.prop_delay, Topology::kMaxPropDelay) << family.name;
    }
  }
}

TEST(GeneratorsTest, BarabasiAlbertHasAHeavyTail) {
  const Topology topo =
      build(GraphSpec{"ba"}.with_nodes(2000).with_seed(11).with_param("m", 2));
  // Every non-seed node attaches with m = 2 trunks, so the minimum degree
  // is 2 while preferential attachment should concentrate a hub well above
  // the mean degree (~4).
  std::size_t max_degree = 0;
  std::size_t min_degree = topo.node_count();
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    max_degree = std::max(max_degree, topo.out_links(n).size());
    min_degree = std::min(min_degree, topo.out_links(n).size());
  }
  EXPECT_GE(min_degree, 2u);
  EXPECT_GE(max_degree, 20u);  // hubs: far above the mean degree of ~4
}

TEST(GeneratorsTest, FatTreeHasTheKAryStructure) {
  // nodes = 80 fits exactly k = 8: (k/2)^2 = 16 cores + k pods of k
  // switches = 80, and k^3/2 = 256 trunks (512 directed links).
  const Topology topo = build(GraphSpec{"fat-tree"}.with_nodes(80));
  EXPECT_EQ(topo.node_count(), 80u);
  EXPECT_EQ(topo.link_count(), 512u);
  // Bisection: removing any single trunk cannot disconnect a fat-tree;
  // every edge switch still reaches every other through (k/2)^2 cores.
  EXPECT_TRUE(topo.is_connected());
}

TEST(GeneratorsTest, FatTreeRejectsImpossibleShapes) {
  // Below the smallest (k = 2) fabric: rejected by the registry node range.
  EXPECT_THROW((void)build(GraphSpec{"fat-tree"}.with_nodes(4)),
               std::invalid_argument);
  // An explicit odd arity: rejected by the family builder.
  EXPECT_THROW(
      (void)build(GraphSpec{"fat-tree"}.with_nodes(80).with_param("k", 3)),
      std::invalid_argument);
}

TEST(GeneratorsTest, LeoGridDelaysFollowTheOrbitModel) {
  const Topology topo = build(GraphSpec{"leo-grid"}.with_nodes(64));
  // 8 planes x 8 satellites. Intra-plane links all share one delay (the
  // constant arc length of the orbit); inter-plane delays shrink toward the
  // seam (cos factor) but are floored at 10% of the equatorial spacing.
  std::set<std::int64_t> intra_delays;
  std::int64_t inter_max = 0;
  std::int64_t inter_min = std::numeric_limits<std::int64_t>::max();
  for (std::size_t l = 0; l < topo.link_count(); l += 2) {
    const Link& link = topo.link(static_cast<LinkId>(l));
    const bool same_plane =
        link.from / 8 == link.to / 8;  // ids are plane-major
    if (same_plane) {
      intra_delays.insert(link.prop_delay.us());
    } else {
      inter_max = std::max(inter_max, link.prop_delay.us());
      inter_min = std::min(inter_min, link.prop_delay.us());
    }
  }
  EXPECT_EQ(intra_delays.size(), 1u);
  EXPECT_GT(*intra_delays.begin(), 0);
  EXPECT_GT(inter_min, 0);
  EXPECT_GE(inter_min * 10, inter_max);  // floor = 0.1 x equatorial spacing
}

TEST(GeneratorsTest, HierAsKeepsStubsDualHomed) {
  const Topology topo = build(GraphSpec{"hier-as"}.with_nodes(400).with_seed(5));
  // Every node in the hierarchy is at least dual-homed except nothing:
  // core is a ring (degree >= 2), transits and stubs attach twice.
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    EXPECT_GE(topo.out_links(n).size(), 2u) << "node " << n;
  }
}

// ---- CSR adjacency vs the link records ----

TEST(GeneratorsTest, CsrAdjacencyMatchesTheLinkRecords) {
  const Topology topo =
      build(GraphSpec{"waxman"}.with_nodes(150).with_seed(9));
  std::size_t seen = 0;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    const std::span<const LinkId> lids = topo.out_links(n);
    const std::span<const NodeId> tos = topo.out_targets(n);
    ASSERT_EQ(lids.size(), tos.size());
    for (std::size_t i = 0; i < lids.size(); ++i) {
      const Link& link = topo.link(lids[i]);
      EXPECT_EQ(link.from, n);
      EXPECT_EQ(link.to, tos[i]);
      EXPECT_EQ(topo.out_pos(lids[i]), i);
      ++seen;
    }
  }
  EXPECT_EQ(seen, topo.link_count());
}

TEST(GeneratorsTest, SpfOverGeneratedGraphsIsSymmetric) {
  // All families emit duplex trunks with equal delays both ways, so with
  // symmetric costs the root->v distance must equal v->root.
  const Topology topo =
      build(GraphSpec{"ba"}.with_nodes(120).with_seed(13).with_param("m", 2));
  routing::LinkCosts costs(topo.link_count());
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    costs[l] = 1.0 + topo.link(static_cast<LinkId>(l)).prop_delay.ms();
  }
  const routing::SpfTree from0 = routing::Spf::compute(topo, 0, costs);
  for (NodeId v = 0; v < topo.node_count(); v += 17) {
    const routing::SpfTree back = routing::Spf::compute(topo, v, costs);
    EXPECT_DOUBLE_EQ(from0.dist[v], back.dist[0]) << "node " << v;
  }
}

TEST(GeneratorsTest, IncrementalSpfMatchesFullRecomputeOnGeneratedGraphs) {
  const Topology topo =
      build(GraphSpec{"leo-grid"}.with_nodes(100));
  routing::LinkCosts costs(topo.link_count(), 1.0);
  routing::IncrementalSpf inc{topo, 0, costs};
  // Walk a few cost changes and confirm the resident tree never diverges
  // from a from-scratch Dijkstra.
  for (std::size_t l = 0; l < topo.link_count(); l += 37) {
    costs[l] = 1.0 + static_cast<double>(l % 5);
    inc.set_cost(static_cast<LinkId>(l), costs[l]);
    const routing::SpfTree fresh = routing::Spf::compute(topo, 0, costs);
    ASSERT_EQ(inc.tree().dist, fresh.dist) << "after link " << l;
    ASSERT_EQ(inc.tree().first_hop, fresh.first_hop) << "after link " << l;
  }
}

TEST(GeneratorsTest, FloodCopyCountAgreesWithCsrFanout) {
  const Topology topo = build(GraphSpec{"fat-tree"}.with_nodes(80));
  const NodeId node = 12;
  const std::span<const LinkId> out = topo.out_links(node);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(routing::flood_copy_count(topo, node, kInvalidLink), out.size());
  // Arrived over the reverse of our first out-link: one fewer copy.
  const LinkId in = topo.link(out[0]).reverse;
  EXPECT_EQ(routing::flood_copy_count(topo, node, in), out.size() - 1);
}

// ---- registry validation ----

TEST(GeneratorsTest, RegistryRejectsUnknownFamily) {
  try {
    (void)build(GraphSpec{"erdos"}.with_nodes(10));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown topology family"),
              std::string::npos);
  }
}

TEST(GeneratorsTest, RegistryRejectsUnknownParameter) {
  try {
    (void)build(GraphSpec{"ba"}.with_nodes(100).with_param("gamma", 1.0));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("has no parameter 'gamma'"),
              std::string::npos);
  }
}

TEST(GeneratorsTest, RegistryRejectsOutOfRangeParameter) {
  EXPECT_THROW(
      (void)build(GraphSpec{"ba"}.with_nodes(100).with_param("m", 99)),
      std::invalid_argument);
}

TEST(GeneratorsTest, RegistryRejectsOutOfRangeNodeCounts) {
  EXPECT_THROW((void)build(GraphSpec{"waxman"}.with_nodes(100'000)),
               std::invalid_argument);
  EXPECT_THROW((void)build(GraphSpec{"arpanet87"}.with_nodes(48)),
               std::invalid_argument);
}

TEST(GeneratorsTest, ShapedFamiliesRejectAContradictingNodeCount) {
  const struct {
    const char* spec;
    const char* nodes;  ///< the given count
    const char* shape;  ///< the count the shape fixes
  } contradictions[] = {
      {"grid:nodes=9,width=5,height=5", "nodes=9", "25 nodes"},
      {"two-region:nodes=8,per_region=6", "nodes=8", "12 nodes"},
  };
  for (const auto& c : contradictions) {
    try {
      (void)build_topology(c.spec);
      ADD_FAILURE() << c.spec << " built";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.nodes), std::string::npos) << what;
      EXPECT_NE(what.find(c.shape), std::string::npos) << what;
    }
  }
  // Agreeing counts still build.
  EXPECT_EQ(build_topology("grid:nodes=25,width=5,height=5").node_count(), 25u);
  EXPECT_EQ(build_topology("two-region:nodes=12,per_region=6").node_count(),
            12u);
}

TEST(GeneratorsTest, RegistryRangeChecksTheCountAShapeFixes) {
  // Without nodes the shape decides the size, and that size is what the
  // registry reports and range-checks, not the family default (16, 12).
  const TopologyBuilder& reg = TopologyBuilder::registry();
  EXPECT_EQ(reg.validate(GraphSpec::parse("grid:width=5,height=5")), 25u);
  EXPECT_EQ(reg.validate(GraphSpec::parse("two-region:per_region=6")), 12u);
  // A shape that leaves the count open still falls back to the default.
  EXPECT_EQ(reg.validate(GraphSpec::parse("grid:width=4")), 16u);
  EXPECT_EQ(reg.validate(GraphSpec::parse("two-region")), 12u);
}

TEST(GeneratorsTest, LegacyFamiliesAreReachableThroughTheRegistry) {
  EXPECT_EQ(build(GraphSpec{"arpanet87"}).node_count(), 47u);
  EXPECT_EQ(build(GraphSpec{"ring"}.with_nodes(6)).node_count(), 6u);
  EXPECT_EQ(build(GraphSpec{"grid"}
                      .with_nodes(12)
                      .with_param("width", 4)
                      .with_param("height", 3))
                .node_count(),
            12u);
}

// ---- IO at generated-family scale ----

TEST(GeneratorsTest, GeneratedDelaysRoundTripThroughTopologyIo) {
  const Topology original = build(GraphSpec{"leo-grid"}.with_nodes(64));
  const std::string text = topology_to_string(original);
  const Topology reparsed = parse_topology(text);
  EXPECT_EQ(topology_to_string(reparsed), text);
  ASSERT_EQ(reparsed.link_count(), original.link_count());
  for (std::size_t l = 0; l < original.link_count(); ++l) {
    EXPECT_EQ(reparsed.link(static_cast<LinkId>(l)).prop_delay.us(),
              original.link(static_cast<LinkId>(l)).prop_delay.us());
  }
}

TEST(GeneratorsTest, DotExportRefusesGeneratedScale) {
  const Topology big =
      build(GraphSpec{"ba"}.with_nodes(3000).with_seed(1));
  try {
    (void)to_dot(big);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dot export refused"),
              std::string::npos);
  }
  // At or under the cap it still works.
  const Topology small = build(GraphSpec{"ring"}.with_nodes(8));
  EXPECT_NE(to_dot(small).find("graph arpanet"), std::string::npos);
}

}  // namespace
}  // namespace arpanet::net
