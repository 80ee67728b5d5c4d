#include "src/sim/host_flow.h"

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"

namespace arpanet::sim {
namespace {

using net::LineType;
using util::SimTime;

net::Topology two_nodes() {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  t.add_duplex(a, b, LineType::kTerrestrial56, SimTime::from_ms(10));
  return t;
}

TEST(HostFlowTest, MessagesCompleteOnCleanLink) {
  const net::Topology topo = two_nodes();
  Network net{topo, NetworkConfig{}};
  HostFlowLayer host{net, HostFlowConfig{}};
  host.add_pair(0, 1, 10e3);
  net.run_for(SimTime::from_sec(120));

  EXPECT_GT(host.messages_offered(), 100);
  // Everything offered completes (minus the handful still in flight).
  EXPECT_GE(host.messages_completed(), host.messages_offered() - 5);
  EXPECT_EQ(host.messages_abandoned(), 0);
  EXPECT_EQ(host.retransmissions(), 0);
  // Message RTT: ~4 packets serialized + propagation both ways, light load.
  EXPECT_GT(host.message_delay_ms().mean(), 40.0);
  EXPECT_LT(host.message_delay_ms().mean(), 1000.0);
  EXPECT_NEAR(host.goodput_bps(), 10e3, 2.5e3);
}

TEST(HostFlowTest, WindowThrottlesOverload) {
  // Offer 3x the link under window 1: the source is throttled rather than
  // the network flooded — the closed loop keeps queue drops near zero.
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.queue_capacity = 20;
  Network open_net{topo, cfg};
  traffic::TrafficMatrix m{2};
  m.set(0, 1, 168e3);
  open_net.add_traffic(m);  // open loop, same offered load
  open_net.run_for(SimTime::from_sec(120));

  Network closed_net{topo, cfg};
  HostFlowConfig hcfg;
  hcfg.window = 1;
  HostFlowLayer host{closed_net, hcfg};
  host.add_pair(0, 1, 168e3);
  closed_net.run_for(SimTime::from_sec(120));

  EXPECT_GT(open_net.stats().packets_dropped_queue, 5000);
  EXPECT_LT(closed_net.stats().packets_dropped_queue,
            open_net.stats().packets_dropped_queue / 50);
  // The window caps goodput near one message per RTT, far below offered.
  EXPECT_LT(host.goodput_bps(), 60e3);
  EXPECT_GT(host.goodput_bps(), 5e3);
}

TEST(HostFlowTest, LargerWindowRaisesGoodput) {
  // On a long-delay (satellite) link the window-1 scheme is RTT-bound at
  // roughly one message per round trip; window 8 approaches link capacity.
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex(a, b, LineType::kSatellite56);
  auto run = [&](int window) {
    Network net{topo, NetworkConfig{}};
    HostFlowConfig hcfg;
    hcfg.window = window;
    HostFlowLayer host{net, hcfg};
    host.add_pair(0, 1, 168e3);
    net.run_for(SimTime::from_sec(120));
    return host.goodput_bps();
  };
  const double w1 = run(1);
  const double w8 = run(8);
  EXPECT_GT(w8, 2.5 * w1);
  EXPECT_LT(w1, 20e3);  // ~ message_bits / RTT
}

TEST(HostFlowTest, RecoversFromPacketLossViaRetransmission) {
  // Tiny queues + competing open-loop noise force message-packet drops;
  // the RFNM timeout must recover them.
  const net::Topology topo = two_nodes();
  NetworkConfig cfg;
  cfg.queue_capacity = 8;
  Network net{topo, cfg};
  traffic::TrafficMatrix noise{2};
  noise.set(0, 1, 38e3);  // enough contention for occasional tail drops
  net.add_traffic(noise);

  HostFlowConfig hcfg;
  hcfg.rfnm_timeout = SimTime::from_sec(2);
  hcfg.mean_message_bits = 2000;  // short messages: bursts fit the queue
  HostFlowLayer host{net, hcfg};
  host.add_pair(0, 1, 2e3);
  net.run_for(SimTime::from_sec(400));

  EXPECT_GT(host.retransmissions(), 0);  // losses happened and were retried
  EXPECT_EQ(host.messages_abandoned(), 0);
  EXPECT_GT(host.messages_completed(), 0.8 * host.messages_offered() - 10);
}

TEST(HostFlowTest, RunsOverTheFullNetwork) {
  const net::Topology net87 = net::build_topology("arpanet87");
  Network net{net87, NetworkConfig{}};
  HostFlowLayer host{net, HostFlowConfig{}};
  host.add_traffic(
      traffic::TrafficMatrix::uniform(net87.node_count(), 150e3));
  net.run_for(SimTime::from_sec(90));
  EXPECT_GT(host.messages_completed(), 1000);
  EXPECT_EQ(host.messages_abandoned(), 0);
}

TEST(HostFlowTest, RejectsBadConfig) {
  const net::Topology topo = two_nodes();
  Network net{topo, NetworkConfig{}};
  HostFlowConfig bad;
  bad.window = 0;
  EXPECT_THROW((HostFlowLayer{net, bad}), std::invalid_argument);
  HostFlowLayer ok{net, HostFlowConfig{}};
  EXPECT_THROW(ok.add_pair(1, 1, 1e3), std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::sim
