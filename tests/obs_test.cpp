// The observability subsystem (src/obs/): the Counters registry and its
// merge semantics, Stopwatch/ScopedTimer, the deterministic JsonWriter, the
// TraceSink hooks, and the counters a real scenario run actually produces.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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

  // The cost series must mirror what the network recorded as last reported.
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    if (sink.costs(l).empty()) continue;
    EXPECT_DOUBLE_EQ(sink.costs(l).back().second, net.last_reported_cost(l));
  }
}

namespace {

/// Formats one sample exactly as StreamingTraceSink's CSV writer does, so
/// the comparison below is representation-exact.
std::string csv_line(const char* series, net::LinkId link, SimTime at,
                     double value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s,%u,%lld,%.10g", series, link,
                static_cast<long long>(at.us()), value);
  return buf;
}

}  // namespace

TEST_F(NetworkObservabilityTest, StreamingSinkMatchesRecordingSink) {
  const net::Topology topo = net::build_topology("ring:nodes=6");

  RecordingTraceSink recording{topo.link_count()};
  {
    sim::Network net{topo, sim::NetworkConfig{}};
    run(net, &recording);
  }

  std::ostringstream os;
  {
    StreamingTraceSink streaming{os, StreamingTraceSink::Format::kCsv};
    sim::Network net{topo, sim::NetworkConfig{}};
    run(net, &streaming);
    EXPECT_EQ(streaming.records_written(), recording.total_samples());
  }  // destructor flushes

  // Same seed, same config: the streamed lines must be exactly the
  // recording sink's samples. Split the CSV back into per-link series and
  // compare representations.
  std::vector<std::vector<std::string>> cost_lines(topo.link_count());
  std::vector<std::vector<std::string>> util_lines(topo.link_count());
  std::istringstream in{os.str()};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "series,link,t_us,value");
  while (std::getline(in, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto link = static_cast<net::LinkId>(
        std::stoul(line.substr(c1 + 1, c2 - c1 - 1)));
    ASSERT_LT(link, topo.link_count());
    (line.compare(0, 4, "cost") == 0 ? cost_lines : util_lines)[link]
        .push_back(line);
  }

  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    ASSERT_EQ(cost_lines[l].size(), recording.costs(l).size()) << "link " << l;
    for (std::size_t i = 0; i < cost_lines[l].size(); ++i) {
      const auto& [at, cost] = recording.costs(l)[i];
      EXPECT_EQ(cost_lines[l][i], csv_line("cost", l, at, cost));
    }
    ASSERT_EQ(util_lines[l].size(), recording.utilizations(l).size());
    for (std::size_t i = 0; i < util_lines[l].size(); ++i) {
      const auto& [at, busy] = recording.utilizations(l)[i];
      EXPECT_EQ(util_lines[l][i], csv_line("utilization", l, at, busy));
    }
  }
}

TEST(StreamingTraceSinkTest, JsonlRecordsAreWellFormedAndBuffered) {
  std::ostringstream os;
  StreamingTraceSink sink{os, StreamingTraceSink::Format::kJsonl};
  sink.on_cost_reported(3, SimTime::from_ms(12.5), 42.5);
  sink.on_utilization(0, SimTime::from_sec(10), 0.75);
  EXPECT_EQ(sink.records_written(), 2u);
  // Small writes stay in the buffer until flush (or destruction).
  EXPECT_TRUE(os.str().empty());
  sink.flush();
  EXPECT_EQ(os.str(),
            "{\"series\":\"cost\",\"link\":3,\"t_us\":12500,\"value\":42.5}\n"
            "{\"series\":\"utilization\",\"link\":0,\"t_us\":10000000,"
            "\"value\":0.75}\n");
}

TEST(StreamingTraceSinkTest, LargeRunsFlushInChunks) {
  std::ostringstream os;
  StreamingTraceSink sink{os, StreamingTraceSink::Format::kCsv};
  // Push well past kFlushBytes; the stream must have received data before
  // any explicit flush.
  for (int i = 0; i < 5000; ++i) {
    sink.on_cost_reported(1, SimTime::from_us(i), 10.0 + i);
  }
  EXPECT_GT(os.str().size(), 0u);
  sink.flush();
  // Header plus every record, no truncation.
  std::istringstream in{os.str()};
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 5001u);
}

TEST(StreamingTraceSinkTest, FileConstructorWritesAndThrowsOnBadPath) {
  const std::string path =
      ::testing::TempDir() + "/streaming_trace_sink_test.csv";
  {
    StreamingTraceSink sink{path, StreamingTraceSink::Format::kCsv};
    sink.on_cost_reported(2, SimTime::from_ms(1), 5.0);
  }
  std::ifstream in{path};
  ASSERT_TRUE(in.good());
  std::string header;
  std::string record;
  EXPECT_TRUE(std::getline(in, header));
  EXPECT_EQ(header, "series,link,t_us,value");
  EXPECT_TRUE(std::getline(in, record));
  EXPECT_EQ(record, "cost,2,1000,5");

  EXPECT_THROW(
      (StreamingTraceSink{"/nonexistent-dir/trace.csv",
                          StreamingTraceSink::Format::kCsv}),
      std::runtime_error);
}

TEST_F(NetworkObservabilityTest, ScenarioResultCarriesCounters) {
  const net::Topology topo = net::build_topology("ring:nodes=5");
  const auto cfg = sim::ScenarioConfig{}
                       .with_load_bps(150e3)
                       .with_warmup(SimTime::from_sec(20))
                       .with_window(SimTime::from_sec(40));
  const sim::ScenarioResult result = sim::run_scenario(topo, cfg, "obs");
  EXPECT_EQ(result.counters.spf_full, topo.node_count());
  EXPECT_EQ(result.counters.events_processed, result.events_processed);
  EXPECT_GT(result.counters.packets_forwarded, 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
}

}  // namespace
}  // namespace arpanet::obs
