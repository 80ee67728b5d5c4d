#include <gtest/gtest.h>

#include "src/net/builders/registry.h"
#include "src/net/dot_export.h"
#include "src/sim/network.h"

namespace arpanet::sim {
namespace {

using net::LineType;
using util::SimTime;

// ---- PacketTracer unit behaviour ----

TEST(PacketTracerTest, RecordsInOrder) {
  PacketTracer tracer{16};
  tracer.record(SimTime::from_ms(1), TraceEventKind::kOriginated, 7, 0);
  tracer.record(SimTime::from_ms(2), TraceEventKind::kEnqueued, 7, 0, 3);
  tracer.record(SimTime::from_ms(3), TraceEventKind::kDelivered, 7, 1);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kOriginated);
  EXPECT_EQ(events[1].link, 3u);
  EXPECT_EQ(events[2].node, 1u);
}

TEST(PacketTracerTest, RingBufferKeepsMostRecent) {
  PacketTracer tracer{4};
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.record(SimTime::from_us(static_cast<std::int64_t>(i)),
                  TraceEventKind::kEnqueued, i, 0);
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().packet_id, 6u);
  EXPECT_EQ(events.back().packet_id, 9u);
  EXPECT_EQ(tracer.recorded_total(), 10u);
}

TEST(PacketTracerTest, FilterKeepsOnlyThatPacket) {
  PacketTracer tracer{16};
  tracer.filter_packet(5);
  tracer.record(SimTime::zero(), TraceEventKind::kEnqueued, 4, 0);
  tracer.record(SimTime::zero(), TraceEventKind::kEnqueued, 5, 0);
  EXPECT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(tracer.events()[0].packet_id, 5u);
}

TEST(PacketTracerTest, KindNames) {
  EXPECT_STREQ(to_string(TraceEventKind::kDroppedQueue), "dropped-queue");
  EXPECT_STREQ(to_string(TraceEventKind::kTransmitted), "transmitted");
}

// ---- end-to-end: trace a packet across the simulator ----

TEST(PacketTracerTest, TracesAPacketHopByHop) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_duplex(a, b, LineType::kTerrestrial56);  // links 0,1
  t.add_duplex(b, c, LineType::kTerrestrial56);  // links 2,3

  NetworkConfig cfg;
  Network net{t, cfg};
  PacketTracer tracer;
  net.attach_tracer(&tracer);
  traffic::TrafficMatrix m{3};
  m.set(a, c, 2e3);
  net.add_traffic(m);
  net.run_for(SimTime::from_sec(20));

  // Find a delivered data packet and check its life cycle:
  // originated@a -> enqueued@a(link0) -> transmitted@a -> enqueued@b(link2)
  // -> transmitted@b -> delivered@c.
  std::uint64_t candidate = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.kind == TraceEventKind::kDelivered && e.node == c) {
      candidate = e.packet_id;
      break;
    }
  }
  ASSERT_NE(candidate, 0u);
  const auto life = tracer.events_for(candidate);
  ASSERT_EQ(life.size(), 6u);
  EXPECT_EQ(life[0].kind, TraceEventKind::kOriginated);
  EXPECT_EQ(life[0].node, a);
  EXPECT_EQ(life[1].kind, TraceEventKind::kEnqueued);
  EXPECT_EQ(life[1].link, 0u);
  EXPECT_EQ(life[2].kind, TraceEventKind::kTransmitted);
  EXPECT_EQ(life[3].kind, TraceEventKind::kEnqueued);
  EXPECT_EQ(life[3].node, b);
  EXPECT_EQ(life[3].link, 2u);
  EXPECT_EQ(life[5].kind, TraceEventKind::kDelivered);
  EXPECT_EQ(life[5].node, c);
  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < life.size(); ++i) {
    EXPECT_GE(life[i].at, life[i - 1].at);
  }
}

// ---- dot export ----

TEST(DotExportTest, ContainsNodesEdgesAndStyles) {
  const net::Topology net87 = net::build_topology("arpanet87");
  const std::string dot = net::to_dot(net87);
  EXPECT_NE(dot.find("graph arpanet {"), std::string::npos);
  EXPECT_NE(dot.find("\"MIT\""), std::string::npos);
  EXPECT_NE(dot.find("\"HAWAII\" -- \"AMES\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);   // satellite trunks
  EXPECT_NE(dot.find("penwidth=0.5"), std::string::npos);   // 9.6 kb/s tails
  EXPECT_NE(dot.find("penwidth=2.0"), std::string::npos);   // multi-trunk
}

TEST(DotExportTest, LabelerIsApplied) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56);
  const std::string dot = net::to_dot(
      t, [](const net::Link& link) { return std::to_string(link.id) + "!"; });
  EXPECT_NE(dot.find("label=\"0!\""), std::string::npos);
}

}  // namespace
}  // namespace arpanet::sim
