#include "src/routing/bellman_ford.h"

#include <gtest/gtest.h>

#include "src/net/builders/registry.h"
#include "src/routing/spf.h"
#include "src/util/rng.h"

namespace arpanet::routing {
namespace {

using net::LineType;
using net::Topology;

TEST(BellmanFordTest, ConvergesOnRing) {
  const Topology t = net::build_topology("ring:nodes=6");
  DistributedBellmanFord bf{t};
  const std::vector<double> queues(t.link_count(), 0.0);
  const int rounds = bf.run_to_convergence(queues);
  EXPECT_LT(rounds, 10);
  // With zero queues every link metric is the bias (1): distance = hops.
  EXPECT_DOUBLE_EQ(bf.distance(0, 3), 3.0);
  EXPECT_DOUBLE_EQ(bf.distance(0, 1), 1.0);
}

/// With static costs Bellman-Ford must agree with Dijkstra.
TEST(BellmanFordTest, AgreesWithSpfOnStaticCosts) {
  util::Rng rng{77};
  const Topology t = net::build_topology("random:nodes=14,extra=10,seed=77");
  std::vector<double> queues(t.link_count());
  for (double& q : queues) q = static_cast<double>(rng.uniform_index(6));

  DistributedBellmanFord bf{t};
  bf.run_to_convergence(queues);

  LinkCosts costs(t.link_count());
  for (std::size_t i = 0; i < costs.size(); ++i) costs[i] = queues[i] + 1.0;
  for (net::NodeId src = 0; src < t.node_count(); ++src) {
    const SpfTree tree = Spf::compute(t, src, costs);
    for (net::NodeId dst = 0; dst < t.node_count(); ++dst) {
      EXPECT_NEAR(bf.distance(src, dst), tree.dist[dst], 1e-9);
    }
  }
}

TEST(BellmanFordTest, NoLoopsAfterConvergence) {
  const Topology t = net::build_topology("random:nodes=12,extra=8,seed=78");
  std::vector<double> queues(t.link_count(), 2.0);
  DistributedBellmanFord bf{t};
  bf.run_to_convergence(queues);
  for (net::NodeId s = 0; s < t.node_count(); ++s) {
    for (net::NodeId d = 0; d < t.node_count(); ++d) {
      EXPECT_FALSE(bf.has_loop(s, d));
    }
  }
}

/// The historical failure mode (section 2.1): with a volatile instantaneous
/// queue-length metric, next-hop tables mid-convergence can contain loops.
/// We reproduce a classic bounce: after convergence, the queue on one
/// node's only good link spikes, and for the next round(s) its neighbor
/// still advertises the old (now invalid) short distance — a transient
/// two-node loop.
TEST(BellmanFordTest, VolatileMetricCausesTransientLoops) {
  // Path graph a - b - c - d (built as a "ring" of 4 for simplicity, then
  // we only look at traffic toward d=3).
  Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto d = t.add_node("d");
  t.add_duplex(a, b, LineType::kTerrestrial56);  // 0,1
  t.add_duplex(b, c, LineType::kTerrestrial56);  // 2,3
  t.add_duplex(c, d, LineType::kTerrestrial56);  // 4,5
  t.add_duplex(a, c, LineType::kTerrestrial56);  // 6,7 alternate path

  DistributedBellmanFord bf{t};
  std::vector<double> queues(t.link_count(), 0.0);
  bf.run_to_convergence(queues);
  EXPECT_FALSE(bf.has_loop(a, d));

  // Queue spike on c->d: c's route to d is suddenly terrible, but b and a
  // still advertise distances computed from the old metric.
  queues[4] = 50.0;
  bool saw_loop = false;
  for (int round = 0; round < 6 && !saw_loop; ++round) {
    bf.run_round(queues);
    for (net::NodeId s = 0; s < t.node_count() && !saw_loop; ++s) {
      saw_loop = bf.has_loop(s, d);
    }
  }
  EXPECT_TRUE(saw_loop);
  // And once the metric is static long enough, the loop resolves.
  bf.run_to_convergence(queues);
  for (net::NodeId s = 0; s < t.node_count(); ++s) {
    EXPECT_FALSE(bf.has_loop(s, d));
  }
}

TEST(BellmanFordTest, RejectsBadInput) {
  const Topology t = net::build_topology("ring:nodes=4");
  EXPECT_THROW(DistributedBellmanFord(t, 0.0), std::invalid_argument);
  DistributedBellmanFord bf{t};
  const std::vector<double> wrong_size(3, 0.0);
  EXPECT_THROW(bf.run_round(wrong_size), std::invalid_argument);
}

}  // namespace
}  // namespace arpanet::routing
