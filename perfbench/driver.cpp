// Benchmark driver: runs one workload once, in this process, and prints one
// JSON object of raw measurements on its last stdout line. perfbench/run.py
// launches it repeatedly, takes medians and prints the benchmark's result.
//
//   perfbench_driver --workload NAME --seed N [--trace 0|1] [--setup-only 0|1]
//                    [--spans PATH]
//
// --setup-only 1 stops once the network is ready for its first event and
// reports only setup_s, so run.py can take several cold set-up samples
// without paying for whole scenarios.
//
// The run goes through the public sequence sim::run_scenario uses
// (net::TopologyBuilder -> sim::scenario_matrix -> sim::Network ->
// analysis::audit_network) with the library's default NetworkConfig; only
// the metric and the seed are set. Every call into a layer is one span.
// With --trace 1 the driver also captures the window's reported-cost stream
// through a TraceSink and, after the scenario, replays two inner layers in
// isolation on the workload's own inputs: routing (the cost stream through
// one IncrementalSpf per PSN) and the event queue (a hold model at the
// window's peak depth).
//
// Every run checks its own output (audit coverage, packet conservation, the
// workload's intended activity) and prints an exact-count digest of the
// deterministic counters and Table-1 indicators, so two runs at one seed
// must print the same digest.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "spans.h"
#include "src/analysis/invariants.h"
#include "src/net/builders/registry.h"
#include "src/net/graph_spec.h"
#include "src/obs/trace_sink.h"
#include "src/routing/spf.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"
#include "src/util/alloc_guard.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace arpanet;  // NOLINT: driver-local convenience

/// The intended activity a workload must show in its window.
enum class Activity { kForwarding, kSpfPasses };

struct Workload {
  const char* name;
  const char* topology;  ///< GraphSpec::parse form
  metrics::MetricKind metric;
  double load_bps;
  double warmup_s;
  double window_s;
  Activity activity;
};

// Two workloads: one bound by the event engine and data plane, one by many
// small SPF passes. Keeping to two lets each run last long enough to be
// steady on a shared host (perfbench/README.md, "Dropped workloads").
constexpr Workload kWorkloads[] = {
    {"arpanet87-hnspf", "arpanet87", metrics::MetricKind::kHnSpf, 600e3, 120.0,
     600.0, Activity::kForwarding},
    {"leo256-hnspf", "leo-grid:nodes=256", metrics::MetricKind::kHnSpf, 900e3,
     20.0, 40.0, Activity::kSpfPasses},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string{name});
}

/// A /proc/self/status field in MiB (VmRSS: resident now; VmHWM: this
/// program's resident high-water mark, which unlike getrusage's ru_maxrss
/// does not inherit the launching process's peak across exec).
double status_mb(const char* field) {
  std::ifstream status{"/proc/self/status"};
  const std::size_t len = std::strlen(field);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error(std::string{"no "} + field + " in /proc/self/status");
}

/// Data packets queued or in flight: live pool slots minus the flooded
/// routing-update copies, which hold an update payload.
std::uint64_t data_in_flight(sim::Network& network) {
  const sim::PacketPool& pool = network.packet_pool();
  std::uint64_t routing = 0;
  for (std::size_t h = 0; h < pool.slots(); ++h) {
    const sim::Packet& pkt = pool.at(static_cast<sim::PacketHandle>(h));
    if (pkt.update != sim::kInvalidUpdateHandle ||
        pkt.kind == sim::Packet::Kind::kDistanceVector) {
      ++routing;
    }
  }
  return pool.in_use() - routing;
}

/// Trace sink for the traced window: keeps the reported-cost stream (the
/// routing replay's input) and counts measurement periods.
class CostStreamSink final : public obs::TraceSink {
 public:
  struct Report {
    net::LinkId link;
    double cost;
  };

  void on_cost_reported(net::LinkId link, util::SimTime /*at*/,
                        double cost) override {
    reports_.push_back(Report{link, cost});
  }
  void on_utilization(net::LinkId /*link*/, util::SimTime /*at*/,
                      double /*busy_fraction*/) override {
    ++periods_;
  }

  void reserve(std::size_t reports) { reports_.reserve(reports); }
  [[nodiscard]] const std::vector<Report>& reports() const { return reports_; }
  [[nodiscard]] std::uint64_t periods() const { return periods_; }

 private:
  std::vector<Report> reports_;
  std::uint64_t periods_ = 0;
};

/// The hold model never fires what it pops.
class NullSink final : public sim::EventSink {
 public:
  void handle_event(sim::SimEvent& /*ev*/) override {}
};

/// Flat name -> value record printed as the run's JSON object.
class Record {
 public:
  void set(const std::string& name, double value) {
    for (auto& [k, v] : values_) {
      if (k == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& [k, v] : values_) {
      if (k == name) return v;
    }
    throw std::logic_error("no such value: " + name);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& values()
      const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

struct RunOutput {
  Record values;
  std::vector<std::string> digest_fields;  ///< "name=value", hashed in order
  std::vector<std::string> failed_checks;
};

void digest_add(RunOutput& out, const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.17g", name, value);
  out.digest_fields.emplace_back(buf);
}

void check(RunOutput& out, bool ok, const std::string& what) {
  if (!ok) out.failed_checks.push_back(what);
}

struct ReplayTotals {
  std::uint64_t incremental = 0;
  std::uint64_t skipped = 0;
  std::uint64_t nodes_touched = 0;
};

/// Applies the window's reported costs, in report order, to one resident
/// SPF per PSN started from that PSN's costs at the window start.
ReplayTotals replay_routing(SpanRecorder& rec, const net::Topology& topo,
                            const std::vector<routing::LinkCosts>& start_costs,
                            const std::vector<CostStreamSink::Report>& stream) {
  std::vector<routing::IncrementalSpf> spfs;
  spfs.reserve(start_costs.size());
  for (std::size_t n = 0; n < start_costs.size(); ++n) {
    spfs.emplace_back(topo, static_cast<net::NodeId>(n), start_costs[n]);
  }
  {
    const ScopedSpan span{rec, "routing.replay"};
    for (const CostStreamSink::Report& r : stream) {
      for (routing::IncrementalSpf& spf : spfs) spf.set_cost(r.link, r.cost);
    }
  }
  ReplayTotals t;
  for (const routing::IncrementalSpf& spf : spfs) {
    t.incremental += static_cast<std::uint64_t>(spf.incremental_updates());
    t.skipped += static_cast<std::uint64_t>(spf.skipped_updates());
    t.nodes_touched += static_cast<std::uint64_t>(spf.nodes_touched());
  }
  return t;
}

struct HoldResult {
  std::uint64_t ops = 0;
  double seconds = 0.0;
  std::size_t depth = 0;
};

/// Hold model on a bare EventQueue: prefill `depth` events, then pop one and
/// schedule one per operation, so the population stays at `depth`. Gaps are
/// exponential with mean depth x `mean_event_gap_us`, which gives the model
/// the window's event density in simulated time.
HoldResult replay_event_queue(SpanRecorder& rec, std::size_t depth,
                              double mean_event_gap_us, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  sim::EventQueue q;
  NullSink sink;
  util::Rng rng{seed ^ 0x686f6c64ULL};
  const double mean_gap_us =
      std::max(1.0, static_cast<double>(depth) * mean_event_gap_us);
  const auto gap = [&] {
    return util::SimTime::from_us(
        1 + static_cast<std::int64_t>(rng.exponential(mean_gap_us)));
  };
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(gap(), sim::SimEvent::source_tick(
                          sink, static_cast<std::uint32_t>(i)));
  }
  HoldResult r;
  r.ops = std::max<std::uint64_t>(2'000'000, 2 * depth);
  {
    const ScopedSpan span{rec, "sim.eq_hold"};
    for (std::uint64_t i = 0; i < r.ops; ++i) {
      util::SimTime at;
      (void)q.pop(at);
      q.schedule(at + gap(), sim::SimEvent::source_tick(
                                 sink, static_cast<std::uint32_t>(i)));
    }
  }
  r.seconds = rec.duration_s("sim.eq_hold");
  r.depth = q.size();
  return r;
}

RunOutput run_workload(const Workload& w, std::uint64_t seed, bool traced,
                       bool setup_only, SpanRecorder& rec) {
  RunOutput out;
  Record& v = out.values;
  const std::size_t root = rec.open("root");

  auto cfg = sim::ScenarioConfig{}
                 .with_metric(w.metric)
                 .with_load_bps(w.load_bps)
                 .with_seed(seed)
                 .with_warmup(util::SimTime::from_sec(w.warmup_s))
                 .with_window(util::SimTime::from_sec(w.window_s));
  cfg.validate();
  const net::GraphSpec spec = net::GraphSpec::parse(w.topology);

  // ---- set-up: config -> network ready for its first event ----
  std::size_t span = rec.open("net.build");
  const net::Topology topo = net::TopologyBuilder::registry().build(spec);
  double setup_s = rec.close(span);

  span = rec.open("traffic.matrix");
  const traffic::TrafficMatrix matrix = sim::scenario_matrix(topo, cfg);
  setup_s += rec.close(span);

  sim::NetworkConfig ncfg = cfg.network;
  ncfg.metric = cfg.metric;
  ncfg.seed = cfg.seed;
  const double rss_before_ctor = status_mb("VmRSS");
  span = rec.open("sim.ctor");
  auto network = std::make_unique<sim::Network>(topo, ncfg);
  setup_s += rec.close(span);
  const double rss_after_ctor = status_mb("VmRSS");
  const double rss_before_traffic = status_mb("VmRSS");
  span = rec.open("sim.add_traffic");
  network->add_traffic(matrix);
  setup_s += rec.close(span);
  const double rss_after_traffic = status_mb("VmRSS");
  v.set("setup_s", setup_s);
  if (setup_only) {
    rec.close(root);
    return out;
  }

  // ---- warm-up, then the window preparation run_scenario performs ----
  span = rec.open("sim.warmup");
  network->run_for(cfg.warmup);
  network->reset_stats();
  network->reserve_stats_until(network->now() + cfg.window);
  network->reserve_event_headroom();
  const double warmup_s = rec.close(span);

  const obs::Counters before = network->counters();
  const std::uint64_t in_flight_start = data_in_flight(*network);
  std::vector<routing::LinkCosts> start_costs;
  CostStreamSink sink;
  if (traced) {
    // Room for two reports per link per measurement period, so recording
    // the stream normally allocates nothing inside the window.
    sink.reserve(2 * topo.link_count() *
                 static_cast<std::size_t>(
                     cfg.window.sec() / ncfg.measurement_period.sec() + 1.0));
    start_costs.reserve(topo.node_count());
    for (net::NodeId n = 0; n < topo.node_count(); ++n) {
      const auto costs = network->psn(n).spf().costs();
      start_costs.emplace_back(costs.begin(), costs.end());
    }
    network->attach_trace_sink(&sink);
  }

  std::uint64_t window_alloc_bytes = 0;
  span = rec.open("sim.window");
  {
    const util::AllocGuard guard;
    network->run_for(cfg.window);
    window_alloc_bytes = guard.bytes();
  }
  const double window_s = rec.close(span);
  network->attach_trace_sink(nullptr);

  const obs::Counters after = network->counters();
  const std::uint64_t in_flight_end = data_in_flight(*network);

  span = rec.open("stats.indicators");
  const stats::NetworkIndicators ind = network->indicators(cfg.effective_label());
  const sim::NetworkStats st = network->stats();
  const sim::StabilityStats stab = network->stability();
  const obs::Counters lifetime = network->counters();
  const double indicators_s = rec.close(span);

  span = rec.open("analysis.audit");
  const analysis::AuditStats audit = analysis::audit_network(*network);
  const double audit_s = rec.close(span);

  const double scenario_s = setup_s + warmup_s + window_s + indicators_s + audit_s;

  // ---- end-to-end ----
  v.set("sim_s_per_s", w.window_s / window_s);
  v.set("scenario_s", scenario_s);

  // ---- per layer: spans of this run ----
  v.set("net.build_s", rec.duration_s("net.build"));
  v.set("traffic.matrix_s", rec.duration_s("traffic.matrix"));
  v.set("sim.ctor_s", rec.duration_s("sim.ctor"));
  v.set("sim.add_traffic_s", rec.duration_s("sim.add_traffic"));
  v.set("sim.warmup_s", warmup_s);
  v.set("sim.window_s", window_s);
  v.set("analysis.audit_s", audit_s);
  v.set("stats.indicators_s", indicators_s);
  v.set("sim.ctor_rss_mb", rss_after_ctor - rss_before_ctor);
  v.set("sim.add_traffic_rss_mb", rss_after_traffic - rss_before_traffic);

  // ---- per layer: window counter deltas ----
  const auto delta = [&](std::uint64_t obs::Counters::* m) {
    return static_cast<double>(after.*m - before.*m);
  };
  const double events = delta(&obs::Counters::events_processed);
  const double incremental = delta(&obs::Counters::spf_incremental);
  const double skipped = delta(&obs::Counters::spf_skipped);
  const double touched = delta(&obs::Counters::spf_nodes_touched);
  const double originated = delta(&obs::Counters::updates_originated);
  const double update_packets = delta(&obs::Counters::update_packets_sent);
  v.set("sim.events", events);
  v.set("sim.events_per_s", events / window_s);
  v.set("sim.eq_peak_depth", static_cast<double>(after.event_queue_peak_depth));
  v.set("sim.eq_resizes", delta(&obs::Counters::event_queue_resizes));
  v.set("sim.eq_overflow", delta(&obs::Counters::event_queue_overflow_scheduled));
  v.set("sim.pool_slots", static_cast<double>(after.packet_pool_slots));
  v.set("sim.packets_forwarded", delta(&obs::Counters::packets_forwarded));
  v.set("sim.window_alloc_bytes", static_cast<double>(window_alloc_bytes));
  v.set("routing.spf_incremental", incremental);
  v.set("routing.spf_skipped", skipped);
  v.set("routing.nodes_touched", touched);
  v.set("routing.nodes_per_pass", incremental > 0 ? touched / incremental : 0.0);
  v.set("routing.skip_frac",
        incremental + skipped > 0 ? skipped / (incremental + skipped) : 0.0);
  v.set("routing.updates_originated", originated);
  v.set("routing.update_packets", update_packets);
  v.set("routing.flood_fanout", originated > 0 ? update_packets / originated : 0.0);
  v.set("analysis.period_checks", delta(&obs::Counters::invariant_period_checks));

  // ---- per layer: Table-1 model outputs (exact) ----
  const double dropped = static_cast<double>(
      st.packets_dropped_queue + st.packets_dropped_unreachable +
      st.packets_dropped_loop);
  v.set("stats.rtt_ms", ind.round_trip_delay_ms);
  v.set("stats.delivered_kbps", ind.internode_traffic_kbps);
  v.set("stats.path_ratio", ind.path_ratio());
  v.set("stats.updates_per_trunk_s", ind.updates_per_trunk_sec);
  v.set("stats.drop_frac",
        st.packets_generated > 0
            ? dropped / static_cast<double>(st.packets_generated)
            : 0.0);

  // ---- digest: exact counts only, never a time ----
  digest_add(out, "events_window", events);
  digest_add(out, "events_lifetime", static_cast<double>(lifetime.events_processed));
  digest_add(out, "spf_full", static_cast<double>(lifetime.spf_full));
  digest_add(out, "spf_incremental", incremental);
  digest_add(out, "spf_skipped", skipped);
  digest_add(out, "spf_nodes_touched", touched);
  digest_add(out, "updates_originated", originated);
  digest_add(out, "update_packets", update_packets);
  digest_add(out, "packets_forwarded", v.get("sim.packets_forwarded"));
  digest_add(out, "packets_generated", static_cast<double>(st.packets_generated));
  digest_add(out, "packets_delivered", static_cast<double>(st.packets_delivered));
  digest_add(out, "packets_dropped", dropped);
  digest_add(out, "pool_slots", static_cast<double>(lifetime.packet_pool_slots));
  digest_add(out, "pool_acquired", static_cast<double>(lifetime.packet_pool_acquired));
  digest_add(out, "pool_recycled", static_cast<double>(lifetime.packet_pool_recycled));
  digest_add(out, "eq_peak_depth", static_cast<double>(lifetime.event_queue_peak_depth));
  digest_add(out, "route_changes", static_cast<double>(stab.route_changes));
  for (const char* name : {"stats.rtt_ms", "stats.delivered_kbps", "stats.path_ratio",
                           "stats.updates_per_trunk_s", "stats.drop_frac"}) {
    digest_add(out, name, v.get(name));
  }

  // ---- output checks ----
  check(out,
        audit.trees_checked == static_cast<long>(topo.node_count()) &&
            static_cast<std::uint64_t>(audit.costs_checked) == topo.link_count(),
        "audit coverage: trees " + std::to_string(audit.trees_checked) + "/" +
            std::to_string(topo.node_count()) + ", costs " +
            std::to_string(audit.costs_checked) + "/" +
            std::to_string(topo.link_count()));
  const std::uint64_t generated =
      static_cast<std::uint64_t>(st.packets_generated) + in_flight_start;
  const std::uint64_t accounted = static_cast<std::uint64_t>(st.packets_delivered) +
                                  static_cast<std::uint64_t>(dropped) + in_flight_end;
  check(out, generated == accounted,
        "packet conservation: generated+in-flight-at-start " +
            std::to_string(generated) + " != delivered+dropped+in-flight-at-end " +
            std::to_string(accounted));
  check(out, events > 0 && st.packets_delivered > 0,
        "window ran no events or delivered nothing");
  switch (w.activity) {
    case Activity::kForwarding:
      check(out, v.get("sim.packets_forwarded") > 0, "no packets forwarded");
      break;
    case Activity::kSpfPasses:
      check(out, incremental > 0, "no incremental SPF pass in the window");
      break;
  }

  // ---- traced run: layer replays and sink counts ----
  if (traced) {
    const ReplayTotals replay = replay_routing(rec, topo, start_costs, sink.reports());
    const double replay_s = rec.duration_s("routing.replay");
    v.set("routing.replay_s", replay_s);
    v.set("routing.replay_share", replay_s / window_s);
    v.set("routing.replay_incremental", static_cast<double>(replay.incremental));
    v.set("routing.replay_skipped", static_cast<double>(replay.skipped));
    v.set("routing.replay_nodes_touched", static_cast<double>(replay.nodes_touched));
    const double reports = static_cast<double>(sink.reports().size());
    const double periods = static_cast<double>(sink.periods());
    v.set("metrics.periods", periods);
    v.set("metrics.cost_reports", reports);
    v.set("metrics.report_frac", periods > 0 ? reports / periods : 0.0);

    const HoldResult hold = replay_event_queue(
        rec, static_cast<std::size_t>(after.event_queue_peak_depth),
        events > 0 ? w.window_s * 1e6 / events : 1.0, seed);
    v.set("sim.eq_hold_ops_per_s", static_cast<double>(hold.ops) / hold.seconds);
    v.set("sim.eq_hold_depth", static_cast<double>(hold.depth));
  }

  network.reset();
  rec.close(root);
  v.set("obs.root_self_s", rec.self_s(root));
  v.set("peak_rss_mb", status_mb("VmHWM"));
  return out;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--trace 0|1] [--setup-only 0|1]\n"
               "       [--spans PATH]\n"
               "workloads:",
               argv0);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage(argv[0]);
      have_seed = true;
    } else if (arg == "--trace") {
      traced = std::string_view{value} == "1";
    } else if (arg == "--setup-only") {
      setup_only = std::string_view{value} == "1";
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !have_seed) return usage(argv[0]);
  const Workload& w = find_workload(workload);

  SpanRecorder rec;
  const RunOutput out = run_workload(w, seed, traced, setup_only, rec);

  std::uint64_t digest = kFnvOffset;
  for (const std::string& field : out.digest_fields) {
    digest = fnv_bytes(digest, field.data(), field.size());
    digest = fnv_bytes(digest, "\n", 1);
  }
  std::printf("digest %016llx", static_cast<unsigned long long>(digest));
  for (const std::string& field : out.digest_fields) std::printf(" %s", field.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    std::printf("span %-20s parent=%-3td dur=%.6fs self=%.6fs\n",
                rec.spans()[i].name, rec.spans()[i].parent, rec.duration_s(i),
                rec.self_s(i));
  }
  if (!spans_path.empty()) {
    std::ofstream os{spans_path};
    if (!os) throw std::runtime_error("cannot write " + spans_path);
    rec.write_json(os);
    os << '\n';
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"digest\":\"%016llx\",",
              w.name, static_cast<unsigned long long>(seed),
              traced ? "true" : "false", static_cast<unsigned long long>(digest));
  std::printf("\"failed_checks\":[");
  for (std::size_t i = 0; i < out.failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", out.failed_checks[i].c_str());
  }
  std::printf("],\"values\":{");
  for (std::size_t i = 0; i < out.values.values().size(); ++i) {
    const auto& [name, value] = out.values.values()[i];
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", name.c_str(), value);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
