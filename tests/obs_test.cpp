// The observability subsystem (src/obs/): the Counters registry and its
// merge semantics, Stopwatch/ScopedTimer, the deterministic JsonWriter, the
// TraceSink hooks, and the counters a real scenario run actually produces.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/builders/registry.h"
#include "src/obs/counters.h"
#include "src/obs/json_export.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace_sink.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"

namespace arpanet::obs {
namespace {

using util::SimTime;

TEST(CountersTest, CatalogCoversEveryFieldOnce) {
  const auto catalog = Counters::catalog();
  EXPECT_EQ(catalog.size(), 19u);

  std::set<std::string> names;
  for (const Counters::Entry& e : catalog) names.insert(e.name);
  EXPECT_EQ(names.size(), catalog.size()) << "duplicate catalog names";

  // Writing through each member pointer must hit a distinct field: after
  // setting entry i to i+1, reading every entry back must agree.
  Counters c;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    c.*catalog[i].member = i + 1;
  }
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(c.*catalog[i].member, i + 1) << catalog[i].name;
  }
}

TEST(CountersTest, MergeSumsTotalsAndMaxesWatermarks) {
  Counters a;
  a.spf_full = 3;
  a.updates_originated = 10;
  a.event_queue_peak_depth = 40;
  Counters b;
  b.spf_full = 4;
  b.updates_originated = 1;
  b.event_queue_peak_depth = 25;

  a += b;
  EXPECT_EQ(a.spf_full, 7u);
  EXPECT_EQ(a.updates_originated, 11u);
  // Peak depth is a high-water mark: merging runs takes the max, because
  // two sequential runs never hold both queues at once.
  EXPECT_EQ(a.event_queue_peak_depth, 40u);

  Counters c;
  c.event_queue_peak_depth = 99;
  a += c;
  EXPECT_EQ(a.event_queue_peak_depth, 99u);
}

TEST(StopwatchTest, MeasuresElapsedTimeAndScopedTimerAccumulates) {
  const Stopwatch watch;
  EXPECT_GE(watch.seconds(), 0.0);

  double sink = 1.5;  // ScopedTimer adds, never overwrites
  {
    const ScopedTimer timer{sink};
  }
  EXPECT_GE(sink, 1.5);
  EXPECT_LT(sink, 2.5) << "an empty scope took over a second";
}

TEST(JsonExportTest, DoubleFormattingIsFixed) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(1.5), "1.5");
  EXPECT_EQ(json_double(1.0 / 3.0), "0.3333333333");
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

TEST(JsonExportTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(std::string_view{"\n\t", 2}), "\\u000a\\u0009");
}

TEST(JsonExportTest, WriterEmitsDeterministicDocument) {
  std::ostringstream os;
  {
    JsonWriter w{os};
    w.begin_object();
    w.member("name", "bench");
    w.member("count", std::uint64_t{3});
    w.key("values").begin_array();
    w.value(1.5);
    w.value(false);
    w.end_array();
    w.key("empty").begin_object().end_object();
    w.end_object();
  }
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"bench\",\n"
            "  \"count\": 3,\n"
            "  \"values\": [\n"
            "    1.5,\n"
            "    false\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(JsonExportTest, CompactModeOmitsWhitespace) {
  std::ostringstream os;
  {
    JsonWriter w{os, /*indent=*/0};
    w.begin_object();
    w.member("a", std::int64_t{1});
    w.key("b").begin_array().value(2.0).end_array();
    w.end_object();
  }
  EXPECT_EQ(os.str(), R"({"a":1,"b":[2]})");
}

TEST(JsonExportTest, WriterDiesOnUnbalancedScopes) {
  EXPECT_DEATH(
      {
        std::ostringstream os;
        JsonWriter w{os};
        w.begin_object();
        w.end_array();
      },
      "unbalanced end_array");
  EXPECT_DEATH(
      {
        std::ostringstream os;
        JsonWriter w{os};
        w.begin_object();
        // destructor fires with the object still open
      },
      "unclosed scope");
}

// One loaded run, shared by the end-to-end expectations below.
class NetworkObservabilityTest : public ::testing::Test {
 protected:
  static constexpr double kLoadBps = 260e3;

  void run(sim::Network& net, obs::TraceSink* sink) {
    if (sink) net.attach_trace_sink(sink);
    net.add_traffic(traffic::TrafficMatrix::uniform(
        net.topology().node_count(), kLoadBps));
    net.run_for(SimTime::from_sec(60));
  }
};

TEST_F(NetworkObservabilityTest, CountersReflectRealWork) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  sim::NetworkConfig cfg;
  sim::Network net{topo, cfg};
  run(net, nullptr);

  const Counters c = net.counters();
  // Construction alone is one full SPF per PSN.
  EXPECT_EQ(c.spf_full, topo.node_count());
  EXPECT_GT(c.spf_incremental, 0u);
  EXPECT_GT(c.updates_originated, 0u);
  EXPECT_GT(c.update_packets_sent, 0u);
  EXPECT_GT(c.packets_forwarded, 0u);
  EXPECT_GT(c.events_processed, 0u);
  EXPECT_GT(c.event_queue_peak_depth, 0u);
  EXPECT_GT(c.invariant_period_checks, 0u);
  EXPECT_EQ(c.events_processed, net.simulator().events_processed());

  // Unlike NetworkStats, counters survive a stats reset.
  net.reset_stats();
  EXPECT_EQ(net.counters().updates_originated, c.updates_originated);
}

TEST_F(NetworkObservabilityTest, TraceSinkReceivesBothSeries) {
  const net::Topology topo = net::build_topology("ring:nodes=6");
  RecordingTraceSink sink{topo.link_count()};
  sim::NetworkConfig cfg;
  sim::Network net{topo, cfg};
  run(net, &sink);

  EXPECT_EQ(sink.link_count(), topo.link_count());
  EXPECT_GT(sink.total_samples(), 0u);
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    // One utilization sample per 10-second period in 60 seconds; the PSNs'
    // period clocks are staggered, so a link sees 5 or 6 closes.
    EXPECT_GE(sink.utilizations(l).size(), 5u) << "link " << l;
    EXPECT_LE(sink.utilizations(l).size(), 6u) << "link " << l;
    SimTime last = SimTime::zero();
    for (const auto& [at, cost] : sink.costs(l)) {
      EXPECT_GE(at, last);
      EXPECT_GT(cost, 0.0);
      last = at;
    }
    for (const auto& [at, busy] : sink.utilizations(l)) {
      EXPECT_GE(busy, 0.0);
      // A packet whose transmission straddles the period boundary books its
      // whole serialization time into the period it completes in, so a
      // saturated line can read slightly above 1.
      EXPECT_LE(busy, 1.5);
    }
  }

  // The cost series must end at each link's last report, which its PSN
  // keeps in its own held update.
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    if (sink.costs(l).empty()) continue;
    EXPECT_DOUBLE_EQ(sink.costs(l).back().second,
                     net.psn(topo.link(l).from).reported_cost(l));
  }
}

TEST_F(NetworkObservabilityTest, ScenarioResultCarriesCounters) {
  const net::Topology topo = net::build_topology("ring:nodes=5");
  const auto cfg = sim::ScenarioConfig{}
                       .with_load_bps(150e3)
                       .with_warmup(SimTime::from_sec(20))
                       .with_window(SimTime::from_sec(40));
  const sim::ScenarioResult result = sim::run_scenario(topo, cfg);
  EXPECT_EQ(result.counters.spf_full, topo.node_count());
  EXPECT_EQ(result.counters.events_processed, result.events_processed);
  EXPECT_GT(result.counters.packets_forwarded, 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
}

}  // namespace
}  // namespace arpanet::obs
