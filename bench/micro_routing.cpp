// Micro-benchmarks (google-benchmark): the hot paths of the library —
// full vs incremental SPF on the ARPANET-like topology, the event queue,
// the HNM transform, flooding decisions and the response-map building
// block. These back DESIGN.md's claim that the incremental algorithm saves
// the PSN CPU that section 3.3 point 5 worries about.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/analysis/response_map.h"
#include "src/core/hn_metric.h"
#include "src/net/builders/registry.h"
#include "src/routing/spf.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace {

using namespace arpanet;

const net::Topology& fixture() {
  static const net::Topology topo = net::build_topology("arpanet87");
  return topo;
}

void BM_FullSpf(benchmark::State& state) {
  const net::Topology& topo = fixture();
  routing::LinkCosts costs(topo.link_count(), 30.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::Spf::compute(topo, 0, costs));
  }
}
BENCHMARK(BM_FullSpf);

void BM_IncrementalSpfSkippedUpdate(benchmark::State& state) {
  const net::Topology& topo = fixture();
  routing::IncrementalSpf inc{topo, 0,
                              routing::LinkCosts(topo.link_count(), 30.0)};
  // Find a non-tree link; raising its cost is the paper's no-work case.
  net::LinkId non_tree = net::kInvalidLink;
  for (const net::Link& l : topo.links()) {
    if (!inc.tree().uses_link(topo, l.id)) {
      non_tree = l.id;
      break;
    }
  }
  double cost = 31.0;
  for (auto _ : state) {
    inc.set_cost(non_tree, cost);
    cost += 1.0;  // always an increase: never triggers a recompute
  }
}
BENCHMARK(BM_IncrementalSpfSkippedUpdate);

/// Random cost changes on random links. Argument 0 is the 1987 ARPANET;
/// any other value is a leo-grid torus of that many nodes, so the cost of
/// one update can be read against N. It grows with the region an update
/// changes (larger subtrees on a larger torus), not in step with N.
void BM_IncrementalSpfCostChange(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const net::Topology topo =
      nodes == 0 ? fixture()
                 : net::TopologyBuilder::registry().build(
                       net::GraphSpec{"leo-grid"}.with_nodes(nodes));
  state.SetLabel(nodes == 0 ? "arpanet87" : "leo-grid");
  routing::IncrementalSpf inc{topo, 0,
                              routing::LinkCosts(topo.link_count(), 30.0)};
  util::Rng rng{42};
  for (auto _ : state) {
    const auto link =
        static_cast<net::LinkId>(rng.uniform_index(topo.link_count()));
    inc.set_cost(link, 30.0 + static_cast<double>(rng.uniform_index(60)));
  }
}
BENCHMARK(BM_IncrementalSpfCostChange)->Arg(0)->Arg(256)->Arg(1024);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  class CountingSink final : public sim::EventSink {
   public:
    void handle_event(sim::SimEvent& ev) override { count += ev.index(); }
    long count = 0;
  } sink;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::uint32_t i = 0; i < 1000; ++i) {
      sim.schedule_at(util::SimTime::from_us(i * 7 % 997),
                      sim::SimEvent::source_tick(sink, 1));
    }
    sim.run_until(util::SimTime::from_sec(1));
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/// The pending set every traffic workload builds, with the population of
/// CalendarQueueTest.IdleFarFuturePopulationKeepsDaysSmall: 60k idle
/// Poisson source ticks (mean gaps log-spread over 1-1000 s, one pair in
/// 2000 at 10^4 s) under ~1k near-term events due every ~20 us. Each
/// iteration pops the earliest event and reschedules its source. The
/// bench_report hold cells have no idle far-future population, which is
/// why none of them showed days sized by the farthest pending tick.
void BM_EventQueueIdleFarPopulation(benchmark::State& state) {
  constexpr std::uint32_t kPairs = 60'000;
  constexpr std::uint32_t kChurn = 1'000;
  constexpr std::uint64_t kChurnSpanUs = 40'000;  // mean 20 ms, ~20 us apart
  class NullSink final : public sim::EventSink {
   public:
    void handle_event(sim::SimEvent& ev) override { (void)ev; }
  } sink;
  util::Rng rng{2024};
  std::vector<double> mean_us(kPairs);
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    mean_us[p] = p % 2000 == 0 ? 1e10 : 1e6 * std::pow(1000.0, rng.uniform());
  }
  const auto gap = [&](std::uint32_t id) {
    return util::SimTime::from_us(
        id < kPairs
            ? 1 + static_cast<std::int64_t>(rng.exponential(mean_us[id]))
            : static_cast<std::int64_t>(rng.uniform_index(kChurnSpanUs)));
  };
  sim::EventQueue q;
  for (std::uint32_t id = 0; id < kPairs + kChurn; ++id) {
    q.schedule(gap(id), sim::SimEvent::source_tick(sink, id));
  }
  for (auto _ : state) {
    util::SimTime at;
    const sim::SimEvent ev = q.pop(at);
    q.schedule(at + gap(ev.index()),
               sim::SimEvent::source_tick(sink, ev.index()));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_day"] =
      static_cast<double>(state.iterations()) /
      static_cast<double>(std::max<std::uint64_t>(q.days_drained(), 1));
}
BENCHMARK(BM_EventQueueIdleFarPopulation);

void BM_HnmTransform(benchmark::State& state) {
  const auto params = core::LineParamsTable::arpanet_defaults();
  core::HnMetric m{params.for_type(net::LineType::kTerrestrial56),
                   util::DataRate::kbps(56), util::SimTime::zero()};
  util::Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.update_from_delay(util::SimTime::from_ms(rng.uniform(10.0, 500.0))));
  }
}
BENCHMARK(BM_HnmTransform);

void BM_LinkTrafficAtCost(benchmark::State& state) {
  const net::Topology& topo = fixture();
  const auto matrix =
      traffic::TrafficMatrix::uniform(topo.node_count(), 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::NetworkResponseMap::link_traffic_at_cost(
        topo, matrix, 0, 2.5));
  }
}
BENCHMARK(BM_LinkTrafficAtCost);

}  // namespace

BENCHMARK_MAIN();
