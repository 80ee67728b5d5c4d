// ARPALINT-LAYER(exp): the battery drives the sweep runner, so this
// translation unit sits at the top of the include DAG (the header stays obs)

#include "src/obs/bench_report.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/net/builders/registry.h"
#include "src/obs/json_export.h"
#include "src/obs/stopwatch.h"
#include "src/routing/spf.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/rng.h"

namespace arpanet::obs {

namespace {

BenchScenario make_scenario(std::string name, net::Topology topo,
                            double load_bps, double warmup_sec,
                            double window_sec, std::string fault_spec = "") {
  return BenchScenario{
      .name = std::move(name),
      .topo = std::move(topo),
      .offered_load_bps = load_bps,
      .warmup = util::SimTime::from_sec(warmup_sec),
      .window = util::SimTime::from_sec(window_sec),
      .fault_spec = std::move(fault_spec)};
}

BenchCell make_cell(const BenchScenario& scenario, const exp::SweepRun& run) {
  BenchCell cell;
  cell.topology = scenario.name;
  cell.metric = to_string(run.cell.metric);
  cell.nodes = scenario.topo.node_count();
  cell.links = scenario.topo.link_count();
  cell.offered_load_bps = scenario.offered_load_bps;
  cell.warmup_sec = scenario.warmup.sec();
  cell.window_sec = scenario.window.sec();
  cell.counters = run.result.counters;
  cell.packets_generated = run.result.stats.packets_generated;
  cell.packets_delivered = run.result.stats.packets_delivered;
  cell.delay_p50_ms = run.result.indicators.delay_p50_ms;
  cell.delay_p95_ms = run.result.indicators.delay_p95_ms;
  cell.delay_p99_ms = run.result.indicators.delay_p99_ms;
  cell.audit_costs_checked = run.result.audit.costs_checked;
  cell.audit_trees_checked = run.result.audit.trees_checked;
  cell.fault_spec = scenario.fault_spec;
  cell.stability_route_changes = run.result.stability.route_changes;
  cell.stability_flat_oscillations = run.result.stability.flat_oscillations;
  cell.stability_max_movement = run.result.stability.max_movement;
  cell.stability_faults_applied = run.result.stability.faults_applied;
  cell.stability_reconverge_sec = run.result.stability.reconverge_sec;
  cell.events = run.result.events_processed;
  cell.wall_sec = run.result.wall_seconds;
  return cell;
}

/// Discards every event; the microbenchmark never fires what it pops.
class NullSink final : public sim::EventSink {
 public:
  void handle_event(sim::SimEvent& ev) override { (void)ev; }
};

/// Hold-model workload against a bare sim::EventQueue: prefill, then pop
/// one / push one at the popped time plus a pseudo-random gap. `wide_every`
/// > 0 makes every wide_every-th gap land `wide_gap_us` out, driving the
/// far-future overflow path; 0 keeps every gap inside `gap_us` (the
/// near-future clustering a real run produces).
MicroCell run_micro_cell(std::string name, std::uint64_t gap_us,
                         std::uint64_t wide_every,
                         std::uint64_t wide_gap_us) {
  constexpr std::size_t kPrefill = 4096;
  constexpr std::uint64_t kIterations = 200'000;

  MicroCell cell;
  cell.name = std::move(name);

  sim::EventQueue q;
  NullSink sink;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const auto gap = [&](std::uint64_t i) {
    if (wide_every > 0 && i % wide_every == 0) return next() % wide_gap_us;
    return next() % gap_us;
  };

  const Stopwatch stopwatch;
  for (std::size_t i = 0; i < kPrefill; ++i) {
    q.schedule(util::SimTime::from_us(static_cast<std::int64_t>(gap(i))),
               sim::SimEvent::source_tick(sink, static_cast<std::uint32_t>(i)));
  }
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    util::SimTime at;
    const sim::SimEvent ev = q.pop(at);
    checksum = checksum * 1099511628211ULL ^
               static_cast<std::uint64_t>(at.us()) ^ ev.index();
    q.schedule(at + util::SimTime::from_us(static_cast<std::int64_t>(gap(i))),
               sim::SimEvent::source_tick(
                   sink, static_cast<std::uint32_t>(i & 0xffff)));
  }
  cell.wall_sec = stopwatch.seconds();
  cell.ops = kPrefill + 2 * kIterations;
  cell.checksum = checksum;
  return cell;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

}  // namespace

std::string_view bench_build_flavor() {
  // Rows of kBuildFlavors. A sanitizer outranks LTO: its runtime is what
  // decides whether the measurement window allocates.
#if defined(ARPANET_SANITIZE_BUILD)
  return kBuildFlavors[2].name;
#elif defined(ARPANET_LTO_BUILD)
  return kBuildFlavors[1].name;
#else
  return kBuildFlavors[0].name;
#endif
}

std::vector<MicroCell> run_micro_cells() {
  std::vector<MicroCell> cells;
  // Near-future clustering: gaps within 2 ms of the pop frontier, the
  // distribution transmit completions and propagation arrivals produce.
  cells.push_back(run_micro_cell("hold_near_future", /*gap_us=*/2000,
                                 /*wide_every=*/0, /*wide_gap_us=*/0));
  // Wide span: every 16th gap lands up to 30 s out (measurement-period
  // territory), exercising the overflow list and window resizes.
  cells.push_back(run_micro_cell("hold_wide_span", /*gap_us=*/1000,
                                 /*wide_every=*/16,
                                 /*wide_gap_us=*/30'000'000));
  return cells;
}

std::vector<BenchScenario> bench_battery(const std::string& name) {
  std::vector<BenchScenario> scenarios;
  if (name == "smoke") {
    // Small and fast, but loaded well past the 56 kb/s flat threshold so
    // HN-SPF actually floods updates and the SPF counters move.
    scenarios.push_back(
        make_scenario("ring6", net::build_topology("ring:nodes=6"), 260e3,
                      20.0, 40.0));
    scenarios.push_back(
        make_scenario("grid3x3",
                      net::build_topology("grid:width=3,height=3"), 550e3,
                      20.0, 40.0));
    // One fault cell: a single flap 4 s into the window, healed 6 s later,
    // so the stability section shows nonzero faults_applied and a
    // deterministic reconverge_sec for the golden test to pin.
    scenarios.push_back(make_scenario("ring6_flap",
                                      net::build_topology("ring:nodes=6"),
                                      260e3, 20.0, 40.0,
                                      "flap:link=2,at_s=24,dwell_s=6"));
    return scenarios;
  }
  if (name == "battery") {
    scenarios.push_back(make_scenario("arpanet87",
                                      net::build_topology("arpanet87"), 600e3,
                                      60.0, 120.0));
    scenarios.push_back(
        make_scenario("grid5x5",
                      net::build_topology("grid:width=5,height=5"), 900e3,
                      60.0, 120.0));
    scenarios.push_back(make_scenario("milnet_like",
                                      net::build_topology("milnet"), 700e3,
                                      60.0, 120.0));
    scenarios.push_back(make_scenario("arpanet87_flap",
                                      net::build_topology("arpanet87"), 600e3,
                                      60.0, 120.0,
                                      "flap:link=10,at_s=150,dwell_s=15"));
    return scenarios;
  }
  throw std::invalid_argument("unknown bench battery: " + name);
}

std::vector<net::GraphSpec> topo_battery(const std::string& name) {
  using net::GraphSpec;
  std::vector<GraphSpec> specs;
  if (name == "smoke") {
    // One small cell per generated family. The golden test pins the graph
    // and SPF checksums, so these double as end-to-end determinism checks
    // for the whole builder registry.
    specs.push_back(
        GraphSpec{}.with_family("hier-as").with_nodes(512).with_seed(1987));
    specs.push_back(
        GraphSpec{}.with_family("waxman").with_nodes(256).with_seed(1987));
    specs.push_back(GraphSpec{}.with_family("ba").with_nodes(1000).with_seed(
        1987).with_param("m", 2));
    specs.push_back(
        GraphSpec{}.with_family("fat-tree").with_nodes(80).with_seed(1987));
    specs.push_back(
        GraphSpec{}.with_family("leo-grid").with_nodes(64).with_seed(1987));
    return specs;
  }
  if (name == "battery") {
    specs.push_back(
        GraphSpec{}.with_family("hier-as").with_nodes(8000).with_seed(1987));
    specs.push_back(
        GraphSpec{}.with_family("waxman").with_nodes(4000).with_seed(1987));
    // The 10k-node scale cell: graph build plus SPF throughput at a size
    // no hand-written topology reaches.
    specs.push_back(GraphSpec{}.with_family("ba").with_nodes(10000).with_seed(
        1987).with_param("m", 2));
    specs.push_back(
        GraphSpec{}.with_family("fat-tree").with_nodes(2000).with_seed(1987));
    specs.push_back(
        GraphSpec{}.with_family("leo-grid").with_nodes(2500).with_seed(1987));
    return specs;
  }
  throw std::invalid_argument("unknown bench battery: " + name);
}

TopoCell run_topo_cell(const net::GraphSpec& spec) {
  TopoCell cell;
  cell.name = spec.label();
  cell.family = spec.family();

  const Stopwatch build_watch;
  const net::Topology topo = net::TopologyBuilder::registry().build(spec);
  cell.build_sec = build_watch.seconds();
  cell.nodes = topo.node_count();
  cell.links = topo.link_count();

  std::uint64_t graph_hash = kFnvOffset;
  routing::LinkCosts costs(topo.link_count());
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    const net::Link& link = topo.link(static_cast<net::LinkId>(l));
    graph_hash = fnv_mix(graph_hash, link.from);
    graph_hash = fnv_mix(graph_hash, link.to);
    graph_hash =
        fnv_mix(graph_hash, static_cast<std::uint64_t>(link.prop_delay.us()));
    costs[l] = 1.0 + link.prop_delay.ms();
  }
  cell.graph_checksum = graph_hash;

  // Full SPF from evenly spaced roots; the checksum covers every node's
  // distance bits and first hop, so any drift in generator or SPF order
  // shows up as a byte difference in the report. The loop is timed as the
  // fastest of kSpfPasses identical passes: on the smoke cells it runs well
  // under a millisecond, so one descheduling would otherwise read as a
  // tenfold slowdown. Checksum and settled count come from the first pass.
  constexpr std::size_t kRoots = 4;
  constexpr int kSpfPasses = 7;
  for (int pass = 0; pass < kSpfPasses; ++pass) {
    std::uint64_t spf_hash = kFnvOffset;
    std::uint64_t settled = 0;
    const Stopwatch spf_watch;
    for (std::size_t r = 0; r < kRoots; ++r) {
      const auto root =
          static_cast<net::NodeId>(r * topo.node_count() / kRoots);
      const routing::SpfTree tree = routing::Spf::compute(topo, root, costs);
      for (net::NodeId v = 0; v < topo.node_count(); ++v) {
        if (std::isfinite(tree.dist[v])) ++settled;
        spf_hash =
            fnv_mix(spf_hash, std::bit_cast<std::uint64_t>(tree.dist[v]));
        spf_hash = fnv_mix(spf_hash, tree.first_hop[v]);
      }
    }
    const double sec = spf_watch.seconds();
    if (pass == 0) {
      cell.spf_sec = sec;
      cell.spf_nodes_settled = settled;
      cell.spf_checksum = spf_hash;
    } else {
      cell.spf_sec = std::min(cell.spf_sec, sec);
    }
  }
  cell.spf_roots = kRoots;

  // Incremental perturbation stream, seeded from the spec so the resident
  // algorithm's work profile (localized vs skipped updates, nodes touched)
  // is reproducible and trend-checkable.
  routing::IncrementalSpf inc{topo, 0, costs};
  util::Rng rng{spec.seed() ^ 0x746f706f62656e63ULL};
  constexpr int kPerturbations = 64;
  for (int i = 0; i < kPerturbations; ++i) {
    const auto link =
        static_cast<net::LinkId>(rng.uniform_index(topo.link_count()));
    inc.set_cost(link, costs[link] * rng.uniform(0.5, 1.5));
  }
  cell.incremental_updates = inc.incremental_updates();
  cell.skipped_updates = inc.skipped_updates();
  cell.nodes_touched = inc.nodes_touched();
  return cell;
}

std::vector<BenchCell> run_bench_scenario(const BenchScenario& scenario,
                                          int threads) {
  sim::ScenarioConfig base;
  base.offered_load_bps = scenario.offered_load_bps;
  base.warmup = scenario.warmup;
  base.window = scenario.window;
  if (!scenario.fault_spec.empty()) {
    base.with_faults(std::string_view{scenario.fault_spec});
  }
  exp::SweepSpec spec;
  spec.base = base;
  spec.metrics = {metrics::MetricKind::kHnSpf, metrics::MetricKind::kDspf};
  const exp::NamedTopology named{scenario.name, scenario.topo};
  exp::SweepOptions opts;
  opts.threads = threads;
  const exp::SweepRunner runner{std::move(opts)};
  const exp::SweepResult sweep = runner.run(spec, named);
  std::vector<BenchCell> cells;
  cells.reserve(sweep.runs.size());
  for (const exp::SweepRun& run : sweep.runs) {
    cells.push_back(make_cell(scenario, run));
  }
  return cells;
}

BenchReport run_bench_battery(const std::string& battery, int threads) {
  const std::vector<BenchScenario> scenarios = bench_battery(battery);
  BenchReport report;
  report.battery = battery;
  const Stopwatch stopwatch;
  for (const BenchScenario& scenario : scenarios) {
    for (BenchCell& cell : run_bench_scenario(scenario, threads)) {
      report.cells.push_back(std::move(cell));
    }
  }
  report.micro = run_micro_cells();
  // Topology cells run serially after the sweep — their order and content
  // never depend on the sweep thread count.
  for (const net::GraphSpec& spec : topo_battery(battery)) {
    report.topo.push_back(run_topo_cell(spec));
  }
  report.build_flavor = bench_build_flavor();
  report.elapsed_sec = stopwatch.seconds();
  return report;
}

void BenchReport::write_json(std::ostream& os) const {
  JsonWriter w{os};
  w.begin_object();
  w.member("schema", kBenchSchemaName);
  w.member("schema_version", static_cast<std::int64_t>(kBenchSchemaVersion));
  w.member("battery", battery);
  w.member("build_flavor", build_flavor);
  w.member("elapsed_sec", elapsed_sec);
  w.key("scenarios").begin_array();
  for (const BenchCell& c : cells) {
    w.begin_object();
    w.member("topology", c.topology);
    w.member("metric", c.metric);
    w.member("nodes", static_cast<std::uint64_t>(c.nodes));
    w.member("links", static_cast<std::uint64_t>(c.links));
    w.member("offered_kbps", c.offered_load_bps / 1e3);
    w.member("warmup_sec", c.warmup_sec);
    w.member("window_sec", c.window_sec);
    w.key("spf").begin_object();
    w.member("full", c.counters.spf_full);
    w.member("incremental", c.counters.spf_incremental);
    w.member("skipped", c.counters.spf_skipped);
    w.member("nodes_touched", c.counters.spf_nodes_touched);
    w.end_object();
    w.key("routing").begin_object();
    w.member("updates_originated", c.counters.updates_originated);
    w.member("update_packets_sent", c.counters.update_packets_sent);
    w.end_object();
    w.key("packets").begin_object();
    w.member("generated", static_cast<std::int64_t>(c.packets_generated));
    w.member("delivered", static_cast<std::int64_t>(c.packets_delivered));
    w.member("forwarded", c.counters.packets_forwarded);
    w.member("dropped", c.counters.packets_dropped);
    w.end_object();
    w.key("event_queue").begin_object();
    w.member("peak_depth", c.counters.event_queue_peak_depth);
    w.member("slab_slots", c.counters.event_queue_slab_slots);
    w.member("resizes", c.counters.event_queue_resizes);
    w.member("overflow_scheduled",
             c.counters.event_queue_overflow_scheduled);
    w.end_object();
    w.key("invariants").begin_object();
    w.member("period_checks", c.counters.invariant_period_checks);
    w.member("audit_costs_checked",
             static_cast<std::int64_t>(c.audit_costs_checked));
    w.member("audit_trees_checked",
             static_cast<std::int64_t>(c.audit_trees_checked));
    w.end_object();
    w.key("delay_ms").begin_object();
    w.member("p50", c.delay_p50_ms);
    w.member("p95", c.delay_p95_ms);
    w.member("p99", c.delay_p99_ms);
    w.end_object();
    w.key("alloc_guard").begin_object();
    w.member("scopes", c.counters.alloc_guard_scopes);
    w.member("bytes_peak", c.counters.alloc_guard_bytes_peak);
    w.end_object();
    w.member("fault_spec", c.fault_spec);
    w.key("stability").begin_object();
    w.member("route_changes",
             static_cast<std::int64_t>(c.stability_route_changes));
    w.member("flat_oscillations",
             static_cast<std::int64_t>(c.stability_flat_oscillations));
    w.member("max_movement", c.stability_max_movement);
    w.member("faults_applied",
             static_cast<std::int64_t>(c.stability_faults_applied));
    w.member("reconverge_sec", c.stability_reconverge_sec);
    w.end_object();
    w.member("events", c.events);
    w.member("wall_sec", c.wall_sec);
    w.member("events_per_sec", c.events_per_sec());
    w.end_object();
  }
  w.end_array();
  w.key("micro").begin_array();
  for (const MicroCell& m : micro) {
    w.begin_object();
    w.member("name", m.name);
    w.member("ops", m.ops);
    w.member("checksum", m.checksum);
    w.member("wall_sec", m.wall_sec);
    w.member("ops_per_sec", m.ops_per_sec());
    w.end_object();
  }
  w.end_array();
  w.key("topo").begin_array();
  for (const TopoCell& t : topo) {
    w.begin_object();
    w.member("name", t.name);
    w.member("family", t.family);
    w.member("nodes", static_cast<std::uint64_t>(t.nodes));
    w.member("links", static_cast<std::uint64_t>(t.links));
    w.member("graph_checksum", t.graph_checksum);
    w.member("spf_roots", t.spf_roots);
    w.member("spf_nodes_settled", t.spf_nodes_settled);
    w.member("spf_checksum", t.spf_checksum);
    w.member("incremental_updates",
             static_cast<std::int64_t>(t.incremental_updates));
    w.member("skipped_updates", static_cast<std::int64_t>(t.skipped_updates));
    w.member("nodes_touched", static_cast<std::int64_t>(t.nodes_touched));
    w.member("build_sec", t.build_sec);
    w.member("spf_sec", t.spf_sec);
    w.member("spf_nodes_per_sec", t.spf_nodes_per_sec());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string BenchReport::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

std::vector<std::string> BenchReport::validate() const {
  std::vector<std::string> errors;
  if (cells.empty()) {
    errors.push_back("report has no cells");
    return errors;
  }
  std::string where;
  const auto require = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(where + what);
  };
  for (const BenchCell& c : cells) {
    where = c.topology + "/" + c.metric + ": ";
    require(c.counters.spf_full > 0, "spf.full is zero");
    require(c.counters.spf_incremental > 0, "spf.incremental is zero");
    require(c.counters.spf_skipped > 0, "spf.skipped is zero");
    require(c.counters.updates_originated > 0, "no updates originated");
    require(c.packets_delivered > 0, "no packets delivered");
    require(c.events > 0, "no events processed");
    require(c.events_per_sec() > 0.0, "events_per_sec is zero");
    if (!c.fault_spec.empty()) {
      require(c.stability_faults_applied > 0,
              "fault spec present but no fault action fired in the window");
    }
  }
  for (const MicroCell& m : micro) {
    where = "micro " + m.name + ": ";
    require(m.ops > 0, "no operations executed");
    require(m.ops_per_sec() > 0.0, "ops_per_sec is zero");
  }
  for (const TopoCell& t : topo) {
    where = "topo " + t.name + ": ";
    require(t.nodes > 0, "topology has no nodes");
    require(t.links > 0, "topology has no links");
    require(t.spf_nodes_settled >= t.spf_roots * t.nodes,
            "SPF left nodes unreachable (generated graph not connected)");
    require(t.incremental_updates + t.skipped_updates > 0,
            "perturbation stream did no work");
    require(t.spf_nodes_per_sec() > 0.0, "spf_nodes_per_sec is zero");
  }
  where.clear();
  require(find_build_flavor(build_flavor) != nullptr,
          "unknown build_flavor: " + build_flavor);
  return errors;
}

std::string mask_wall_time_fields(const std::string& json) {
  // The writer's formatting is fixed ("key": value, one member per line),
  // so the value extent is everything up to the next comma or newline. A
  // nested field masks by its last path segment.
  std::string out = json;
  for (const BenchField& f : kBenchFields) {
    if (!is_masked(f.cls)) continue;
    const std::string_view leaf =
        f.path.substr(f.path.rfind('.') + 1);  // npos + 1 == 0: whole path
    const std::string key = "\"" + std::string{leaf} + "\": ";
    for (std::size_t at = out.find(key); at != std::string::npos;
         at = out.find(key, at)) {
      at += key.size();
      out.replace(at, out.find_first_of(",\n", at) - at, "0");
    }
  }
  return out;
}

}  // namespace arpanet::obs
