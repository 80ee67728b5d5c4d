#include "src/net/topology_io.h"

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"

namespace arpanet::net {
namespace {

TEST(TopologyIoTest, ParsesBasicTopology) {
  const Topology t = parse_topology(R"(
# two sites
node MIT
node BBN
trunk MIT BBN 56kb-terrestrial
)");
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.trunk_count(), 1u);
  EXPECT_EQ(t.link(0).type, LineType::kTerrestrial56);
  EXPECT_EQ(t.link(0).prop_delay,
            info(LineType::kTerrestrial56).default_prop_delay);
}

TEST(TopologyIoTest, ParsesPropOverrideAndComments) {
  const Topology t = parse_topology(
      "node a\nnode b   # site b\ntrunk a b 9.6kb-satellite prop_ms=140.5\n");
  EXPECT_EQ(t.link(0).prop_delay, util::SimTime::from_ms(140.5));
  EXPECT_EQ(t.link(0).type, LineType::kSatellite9_6);
}

TEST(TopologyIoTest, LineTypeNamesRoundTrip) {
  for (int i = 0; i < kLineTypeCount; ++i) {
    const LineType type = all_line_types()[i].type;
    EXPECT_EQ(line_type_from_string(to_string(type)), type);
  }
  EXPECT_THROW((void)line_type_from_string("fddi"), std::invalid_argument);
}

TEST(TopologyIoTest, ErrorsCarryLineNumbers) {
  const auto expect_error = [](std::string_view text, std::string_view what) {
    try {
      (void)parse_topology(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string_view{e.what()}.find(what), std::string_view::npos)
          << e.what();
    }
  };
  expect_error("node a\nnode a\n", "line 2");
  expect_error("nod a\n", "unknown directive");
  expect_error("node a\nnode b\ntrunk a b 56kb-terrestrial prop=3\n", "prop_ms=");
  expect_error("node a\ntrunk a b 56kb-terrestrial\n", "no node named b");
  expect_error("node a\nnode b\ntrunk a b warp-drive\n", "unknown line type");
  expect_error("node a\nnode b\ntrunk a b 56kb-terrestrial prop_ms=-1\n",
               "bad propagation");
  expect_error("node a\nnode b\ntrunk a a 56kb-terrestrial\n", "self-loop");
}

TEST(TopologyIoTest, RoundTripsArpanet87) {
  const Topology original = build_topology("arpanet87");
  const Topology parsed = parse_topology(topology_to_string(original));
  ASSERT_EQ(parsed.node_count(), original.node_count());
  ASSERT_EQ(parsed.link_count(), original.link_count());
  for (std::size_t i = 0; i < parsed.link_count(); ++i) {
    const Link& a = original.link(static_cast<LinkId>(i));
    const Link& b = parsed.link(static_cast<LinkId>(i));
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.prop_delay, b.prop_delay);
    EXPECT_EQ(a.reverse, b.reverse);
  }
  for (NodeId n = 0; n < parsed.node_count(); ++n) {
    EXPECT_EQ(parsed.node_name(n), original.node_name(n));
  }
}

TEST(TopologyIoTest, EmptyInputIsEmptyTopology) {
  const Topology t = parse_topology("\n# nothing here\n\n");
  EXPECT_EQ(t.node_count(), 0u);
  EXPECT_EQ(t.link_count(), 0u);
}

}  // namespace
}  // namespace arpanet::net
