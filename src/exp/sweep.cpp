#include "src/exp/sweep.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace arpanet::exp {

namespace {

/// FNV-1a over raw bytes: stable across platforms and standard libraries
/// (unlike std::hash), which keeps derived seeds — and therefore results —
/// reproducible everywhere.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Shortest round-trippable decimal for a double, fixed format rules so CSV
/// bytes do not depend on locale or stream state.
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

SweepSpec& SweepSpec::over_metrics(std::vector<metrics::MetricKind> kinds) {
  metrics = std::move(kinds);
  return *this;
}

SweepSpec& SweepSpec::over_loads_bps(std::vector<double> loads) {
  for (const double l : loads) {
    if (l < 0.0) {
      throw std::invalid_argument("SweepSpec: offered load must be >= 0");
    }
  }
  loads_bps = std::move(loads);
  return *this;
}

SweepSpec& SweepSpec::over_load_range_bps(double from, double to, double step) {
  if (from < 0.0 || to < from || step <= 0.0) {
    throw std::invalid_argument(
        "SweepSpec: load range needs 0 <= from <= to and step > 0");
  }
  loads_bps.clear();
  // Half-a-step slack so `to` itself is included despite rounding.
  for (double l = from; l <= to + step / 2; l += step) loads_bps.push_back(l);
  return *this;
}

SweepSpec& SweepSpec::over_seeds(std::vector<std::uint64_t> s) {
  seeds = std::move(s);
  return *this;
}

SweepSpec& SweepSpec::over_replicas(int n) {
  if (n <= 0) throw std::invalid_argument("SweepSpec: replicas must be > 0");
  seeds.clear();
  for (int i = 0; i < n; ++i) {
    seeds.push_back(base.seed + static_cast<std::uint64_t>(i));
  }
  return *this;
}

SweepSpec& SweepSpec::over_topologies(std::vector<NamedTopology> topos) {
  topologies = std::move(topos);
  return *this;
}

SweepSpec& SweepSpec::over_topology_specs(std::vector<net::GraphSpec> specs) {
  const net::TopologyBuilder& reg = net::TopologyBuilder::registry();
  for (const net::GraphSpec& s : specs) reg.validate(s);
  topology_specs = std::move(specs);
  return *this;
}

std::vector<NamedTopology> SweepSpec::materialize_topologies() const {
  const net::TopologyBuilder& reg = net::TopologyBuilder::registry();
  std::vector<NamedTopology> out;
  out.reserve(topology_specs.size());
  for (const net::GraphSpec& s : topology_specs) {
    out.push_back(NamedTopology{s.label(), reg.build(s)});
  }
  return out;
}

std::size_t SweepSpec::cell_count() const {
  const auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  return dim(topologies.size() + topology_specs.size()) * dim(metrics.size()) *
         dim(loads_bps.size()) * dim(seeds.size());
}

std::uint64_t derive_cell_seed(const std::string& topology,
                               metrics::MetricKind metric,
                               double offered_load_bps,
                               sim::TrafficShape shape, std::uint64_t seed) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a(h, topology.data(), topology.size());
  h = fnv1a_u64(h, static_cast<std::uint64_t>(metric));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(offered_load_bps));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(shape));
  return seed ^ h;
}

sim::ScenarioConfig SweepCell::to_config(const sim::ScenarioConfig& base) const {
  sim::ScenarioConfig cfg = base;
  cfg.metric = metric;
  cfg.offered_load_bps = offered_load_bps;
  cfg.shape = shape;
  cfg.seed = derived_seed;
  return cfg;
}

std::vector<SweepCell> expand_cells(const SweepSpec& spec,
                                    const NamedTopology& default_topo) {
  std::vector<const NamedTopology*> topo_axis;
  if (spec.topologies.empty()) {
    topo_axis.push_back(&default_topo);
  } else {
    for (const NamedTopology& t : spec.topologies) topo_axis.push_back(&t);
  }
  const std::vector<metrics::MetricKind> metric_axis =
      spec.metrics.empty() ? std::vector{spec.base.metric} : spec.metrics;
  const std::vector<double> load_axis =
      spec.loads_bps.empty() ? std::vector{spec.base.offered_load_bps}
                             : spec.loads_bps;
  const std::vector<std::uint64_t> seed_axis =
      spec.seeds.empty() ? std::vector{spec.base.seed} : spec.seeds;

  const sim::TrafficShape shape = spec.base.shape;

  std::vector<SweepCell> cells;
  cells.reserve(topo_axis.size() * metric_axis.size() * load_axis.size() *
                seed_axis.size());
  for (const NamedTopology* t : topo_axis) {
    for (const metrics::MetricKind m : metric_axis) {
      for (const double load : load_axis) {
        for (const std::uint64_t seed : seed_axis) {
          SweepCell cell;
          cell.index = cells.size();
          cell.topology = t->name;
          cell.topo = &t->topo;
          cell.metric = m;
          cell.offered_load_bps = load;
          cell.shape = shape;
          cell.seed = seed;
          cell.derived_seed = derive_cell_seed(t->name, m, load, shape, seed);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

double SweepResult::total_run_seconds() const {
  double total = 0.0;
  for (const SweepRun& r : runs) total += r.result.wall_seconds;
  return total;
}

std::uint64_t SweepResult::total_events() const {
  std::uint64_t total = 0;
  for (const SweepRun& r : runs) total += r.result.events_processed;
  return total;
}

double SweepResult::speedup() const {
  return elapsed_seconds > 0 ? total_run_seconds() / elapsed_seconds : 0.0;
}

void SweepResult::write_csv(std::ostream& os) const {
  os << "index,topology,metric,shape,seed,offered_kbps,delivered_kbps,"
        "rtt_ms,delay_p50_ms,delay_p95_ms,delay_p99_ms,drops_per_sec,"
        "delivered_pps,actual_hops,min_hops,path_ratio,updates_per_trunk_sec,"
        "generated,delivered,drops_queue,drops_unreachable,drops_loop\n";
  for (const SweepRun& r : runs) {
    const auto& ind = r.result.indicators;
    const auto& st = r.result.stats;
    os << r.cell.index << ',' << r.cell.topology << ','
       << to_string(r.cell.metric) << ',' << to_string(r.cell.shape) << ','
       << r.cell.seed << ',' << fmt(r.cell.offered_load_bps / 1e3) << ','
       << fmt(ind.internode_traffic_kbps) << ',' << fmt(ind.round_trip_delay_ms)
       << ',' << fmt(ind.delay_p50_ms) << ',' << fmt(ind.delay_p95_ms) << ','
       << fmt(ind.delay_p99_ms) << ',' << fmt(ind.packets_dropped_per_sec)
       << ',' << fmt(ind.delivered_packets_per_sec) << ','
       << fmt(ind.actual_path_hops) << ',' << fmt(ind.minimum_path_hops) << ','
       << fmt(ind.path_ratio()) << ',' << fmt(ind.updates_per_trunk_sec) << ','
       << st.packets_generated << ',' << st.packets_delivered << ','
       << st.packets_dropped_queue << ',' << st.packets_dropped_unreachable
       << ',' << st.packets_dropped_loop << "\n";
  }
}

std::string SweepResult::csv() const {
  std::ostringstream os;
  write_csv(os);
  return os.str();
}

void SweepResult::write_summary(std::ostream& os) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# sweep: %zu runs on %d thread%s, %.2fs elapsed "
                "(%.2fs of simulation, %.2fx speedup), %" PRIu64
                " events, %.0f events/sec\n",
                runs.size(), threads_used, threads_used == 1 ? "" : "s",
                elapsed_seconds, total_run_seconds(), speedup(), total_events(),
                elapsed_seconds > 0
                    ? static_cast<double>(total_events()) / elapsed_seconds
                    : 0.0);
  os << buf;
}

}  // namespace arpanet::exp
