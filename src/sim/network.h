// Network: the assembled simulation — topology, PSNs, traffic, statistics.
//
// This is the library's main entry point for whole-network experiments:
//
//   const net::Topology topo = net::build_topology("arpanet87");
//   sim::NetworkConfig cfg;
//   cfg.metric = metrics::MetricKind::kHnSpf;
//   sim::Network net{topo, cfg};
//   net.add_traffic(traffic::TrafficMatrix::peak_hour(
//       topo.node_count(), 400e3, util::Rng{cfg.seed}));
//   net.run_for(util::SimTime::from_sec(300));   // warm-up
//   net.reset_stats();
//   net.run_for(util::SimTime::from_sec(600));   // measurement window
//   auto table1 = net.indicators("HN-SPF");
//
// Engine structure: one Network is one single-threaded discrete-event run.
// It owns a single Simulator (calendar event queue and clock), the pooled
// packet and routing-update slabs, the one SPF workspace its PSNs share,
// and every statistic the PSNs report into; run_until drives that queue on
// the caller's thread. Parallelism lives one
// level up, in the sweep runner (src/exp/sweep_runner.h), which executes
// independent Networks on a thread pool.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/core/line_params.h"
#include "src/metrics/link_metric.h"
#include "src/net/topology.h"
#include "src/obs/counters.h"
#include "src/obs/trace_sink.h"
#include "src/routing/routing_table.h"
#include "src/routing/spf.h"
#include "src/sim/event.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network_stats.h"
#include "src/sim/packet_pool.h"
#include "src/sim/packet_trace.h"
#include "src/sim/update_pool.h"
#include "src/sim/psn.h"
#include "src/sim/simulator.h"
#include "src/stats/histogram.h"
#include "src/stats/indicators.h"
#include "src/stats/summary.h"
#include "src/stats/time_series.h"
#include "src/traffic/poisson_source.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/rng.h"

namespace arpanet::sim {

struct NetworkConfig {
  /// Route computation generation; kSpf is the 1979+ scheme the paper
  /// modifies, kDistanceVector the 1969 original kept as a baseline.
  routing::RoutingAlgorithm algorithm = routing::RoutingAlgorithm::kSpf;
  /// The link metric every link runs (each PSN builds one
  /// metrics::LinkMetric per outgoing link).
  metrics::MetricKind metric = metrics::MetricKind::kHnSpf;
  core::LineParamsTable line_params = core::LineParamsTable::arpanet_defaults();
  /// The ARPANET's ten-second measurement interval (> 0, at most
  /// Network::kMaxMeasurementPeriod).
  util::SimTime measurement_period = util::SimTime::from_sec(10);
  /// Output data-queue capacity, packets (> 0); routing updates bypass it.
  int queue_capacity = 40;
  std::uint64_t seed = 0x19870726ULL;
  /// Data packets exceeding this many hops are counted as loop drops
  /// (only the 1969 algorithm ever reaches it). At most 65535, the range of
  /// Packet::hops.
  int hop_limit = 128;
  /// Extension (paper section 4.5): spread each destination's packets
  /// round-robin over all equal-cost shortest-path next hops instead of the
  /// single canonical first hop. SPF mode only: the network rejects it
  /// under kDistanceVector.
  bool multipath = false;
  /// Ablation hook: overrides the metric's update-generation threshold
  /// (routing units) when >= 0. The shipped behaviour (-1) uses the
  /// metric's own value — "a little less than a half-hop" for HN-SPF, the
  /// decaying 64-unit scheme for D-SPF. Must be finite: the network rejects
  /// NaN and infinities.
  double significance_threshold_override = -1.0;
};

class Network : public EventSink {
 public:
  Network(const net::Topology& topo, NetworkConfig cfg);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Bucket width for the drop and link-utilization time series.
  static constexpr util::SimTime kStatsBucket = util::SimTime::from_sec(10);

  /// Longest measurement period a network accepts: an hour, 360 times the
  /// ARPANET's ten seconds. Any longer period closes at most a handful of
  /// times in a run, and the bound keeps every period sum and Psn::start's
  /// per-node stagger (period x node index) far inside SimTime's range.
  static constexpr util::SimTime kMaxMeasurementPeriod =
      util::SimTime::from_sec(3600);

  /// Installs one Poisson source per node with outgoing traffic: its rate
  /// is the row's sum, and each packet's destination is drawn in proportion
  /// to the row's entries (the same arrival law as one process per nonzero
  /// entry). May be called once, before running.
  void add_traffic(const traffic::TrafficMatrix& matrix);

  /// Stops all sources: no packet is originated after this call. Running
  /// further drains the queues, after which conservation holds exactly
  /// (generated == delivered + dropped).
  void stop_traffic() { traffic_enabled_ = false; }

  /// Called (after statistics) for every delivered data packet. Used by
  /// host-level layers (sim/host_flow.h); one hook at a time.
  void set_delivery_hook(std::function<void(const Packet&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Attaches a packet tracer (nullptr detaches). The tracer must outlive
  /// the run; recording costs one branch per event when detached.
  void attach_tracer(PacketTracer* tracer) { tracer_ = tracer; }

  /// Attaches a per-link observability sink receiving every reported cost
  /// and each link's per-period busy fraction (nullptr detaches). Same
  /// lifetime/cost contract as attach_tracer.
  void attach_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  /// Psn-side tracing entry point.
  void trace(TraceEventKind kind, const Packet& pkt, net::NodeId node,
             net::LinkId link = net::kInvalidLink) {
    if (tracer_) tracer_->record(now(), kind, pkt.id, node, link);
  }

  void run_for(util::SimTime duration);
  void run_until(util::SimTime end);

  /// Zeroes counters and restarts the measurement window (call after
  /// warm-up).
  void reset_stats();

  /// Network-wide window statistics.
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] util::SimTime window_length() const {
    return sim_.now() - window_start_;
  }
  [[nodiscard]] stats::NetworkIndicators indicators(std::string label) const;

  /// Whole-run telemetry snapshot: live counters merged with per-PSN SPF
  /// work and the event-engine and pool totals. Unlike stats(), never reset
  /// by reset_stats() — values cover the network's lifetime including
  /// warm-up.
  [[nodiscard]] obs::Counters counters() const;

  [[nodiscard]] const net::Topology& topology() const { return *topo_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }
  /// True when every link runs HN-SPF, whose movement limits and flat
  /// region the invariant checks judge.
  [[nodiscard]] bool hnspf_semantics() const {
    return cfg_.metric == metrics::MetricKind::kHnSpf;
  }
  /// The metric running on `link` (its PSN's, built for the link record in
  /// effect, so a line-type upgrade brings its own).
  [[nodiscard]] const metrics::LinkMetric& link_metric(net::LinkId link) const {
    return psns_[topo_->link(link).from]->metric(link);
  }
  /// The cost range `link`'s metric promises.
  [[nodiscard]] metrics::CostBounds link_bounds(net::LinkId link) const {
    return link_metric(link).bounds();
  }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] util::SimTime now() const { return sim_.now(); }

  /// Events processed over the network's lifetime.
  [[nodiscard]] std::uint64_t events_processed() const {
    return sim_.events_processed();
  }
  /// Pre-sizes the calendar queue to 4x its observed peak depth and the
  /// routing-update pool to the versions the PSNs hold plus 2x its peak of
  /// updates in flight (at least one per node), so a measurement window
  /// after warm-up schedules and floods into existing storage.
  void reserve_event_headroom();

  [[nodiscard]] const Psn& psn(net::NodeId id) const { return *psns_.at(id); }
  [[nodiscard]] Psn& psn(net::NodeId id) { return *psns_.at(id); }

  /// Link utilization (busy fraction) per stats bucket.
  [[nodiscard]] const stats::TimeSeries& link_busy_series(net::LinkId id) const {
    return link_busy_.at(id);
  }
  [[nodiscard]] double link_utilization(net::LinkId id,
                                        std::size_t bucket) const;

  /// Drops per stats bucket (fig. 13's quantity).
  [[nodiscard]] const stats::TimeSeries& drop_series() const { return drops_; }

  /// Takes a trunk (both simplex directions) down or up mid-run.
  void set_trunk_up(net::LinkId link, bool up);

  /// Compiles `plan` against the topology and schedules every resulting
  /// fault action as one kFaultAction event. `horizon` is the scenario end
  /// (warmup + window); the plan must not reach past it. Call once, before
  /// running: all scheduling happens up front, and an upgrade's line
  /// parameters are checked here, so fault dispatch inside the measurement
  /// window neither allocates nor throws.
  void install_faults(const FaultPlan& plan, util::SimTime horizon);

  /// Administrative state of one simplex link (its trunk's state: both
  /// directions always agree). Distinct from the advertised cost — a down
  /// link still carries Psn::kDownLinkCost in every map.
  [[nodiscard]] bool link_admin_up(net::LinkId link) const;

  /// The link record in effect right now: the topology's, unless a
  /// mid-run line-type upgrade replaced the type and rate (propagation
  /// delay never changes — trunk mileage is fixed). All rate/params lookups
  /// on hot paths go through here.
  [[nodiscard]] const net::Link& effective_link(net::LinkId link) const {
    return effective_links_[link];
  }

  /// Routing updates currently in flight (origination slots plus flooded
  /// copies not yet consumed); the versions PSNs merely hold do not count.
  /// Zero means every flooded report has been applied at every PSN — the
  /// quiescence gate for map-agreement checks.
  [[nodiscard]] std::size_t updates_in_flight() const {
    return updates_.in_flight();
  }

  /// Window stability telemetry; reconverge_sec is derived at call time
  /// from the latest fault and route-change timestamps.
  [[nodiscard]] StabilityStats stability() const;

  /// Takes a whole PSN down or up: all its trunks at once (a node crash /
  /// restart). Down nodes still exist in every map; their links carry
  /// Psn::kDownLinkCost so traffic routes around them.
  void set_node_up(net::NodeId node, bool up);

  /// The route a data packet submitted right now at `src` would take,
  /// walking each PSN's *own* current next hop (its SPF tree, or its
  /// distance-vector table in 1969 mode) — so during update transients this
  /// can legitimately report a loop, exactly as a real packet could
  /// experience one. With multipath on it reports the canonical tree's
  /// route, not the round-robin choice a given packet gets.
  [[nodiscard]] routing::PathTrace current_route(net::NodeId src,
                                                 net::NodeId dst) const;

  /// Cost most recently passed to on_cost_reported for each link (the
  /// link's metric initial cost before any report; kDownLinkCost right
  /// after a line-type upgrade, whose restart is not a movement).
  /// on_cost_reported checks each new report's movement against it.
  [[nodiscard]] double last_reported_cost(net::LinkId link) const {
    return last_reported_cost_.at(link);
  }

  // ---- callbacks from Psn (not for external use) ----
  void on_generated() { ++stats_.packets_generated; }
  void on_delivered(const Packet& pkt);
  void on_queue_drop(const Packet& pkt);
  void on_unreachable_drop(const Packet& pkt);
  void on_loop_drop(const Packet& pkt);
  void on_update_originated() {
    ++stats_.updates_originated;
    ++counters_.updates_originated;
  }
  void on_update_packet_sent() {
    ++stats_.update_packets_sent;
    ++counters_.update_packets_sent;
  }
  void on_data_packet_sent() { ++counters_.packets_forwarded; }
  void on_transmission(net::LinkId link, util::SimTime busy);
  /// A PSN advertised `cost` for its link `link`. Checks the cost against
  /// the link's bounds and, under HN-SPF, the move from the link's previous
  /// report (section 4.3's limit widened by the significance threshold, as
  /// a cost may drift sub-threshold for several periods before an update
  /// carries it); then feeds the trace sink.
  void on_cost_reported(net::LinkId link, double cost);
  /// Typed-event dispatch (sim/event.h): source ticks, propagation
  /// arrivals, transmit completions and the per-node timers all route
  /// through here — one switch, no per-event allocation.
  void handle_event(SimEvent& ev) override;
  /// The pooled packet slab; hot paths pass PacketHandle indices instead of
  /// moving Packet structs.
  [[nodiscard]] PacketPool& packet_pool() { return pool_; }
  /// The refcounted routing-update slab: updates in flight and the
  /// versions every PSN holds as its link-state store.
  [[nodiscard]] UpdatePool& update_pool() { return updates_; }
  [[nodiscard]] const UpdatePool& update_pool() const { return updates_; }
  /// The one SPF workspace every PSN's IncrementalSpf borrows: PSNs run
  /// their passes one at a time on this network's thread.
  [[nodiscard]] routing::SpfScratch& spf_scratch() { return spf_scratch_; }
  /// Pre-extends the bucketed statistics series (per-link utilization,
  /// drops) to cover sim time up to `end`, so recording during a
  /// measurement window that ends by then allocates nothing. Call before
  /// an AllocGuard-wrapped window.
  void reserve_stats_until(util::SimTime end);
  /// One measurement period closed on `link`: `previous` and `candidate`
  /// are the metric's consecutive per-period costs (kDownLinkCost while the
  /// link is down), `busy_fraction` the period's transmitter utilization.
  /// Enforces the exact section 4.3 movement bound between consecutive
  /// update periods (no significance-threshold widening — the metric
  /// limits every period's move, reported or not) and feeds the trace sink.
  /// The strong analysis types make the cost/cost/utilization argument row
  /// un-swappable at the call site.
  void on_period_measured(net::LinkId link, analysis::Cost previous,
                          analysis::Cost candidate,
                          analysis::Utilization busy_fraction);
  /// Hands a transmitted packet to the link's far end: schedules its
  /// arrival one propagation delay from now.
  void deliver_to_peer(net::LinkId link, PacketHandle pkt) {
    sim_.schedule_in(effective_links_[link].prop_delay,
                     SimEvent::propagation_arrival(*this, link, pkt));
  }
  [[nodiscard]] std::uint64_t next_packet_id() { return ++packet_seq_; }
  /// A batch of spf cost changes moved `delta` destinations' first hops at
  /// some PSN (stability telemetry; called by Psn after each batch).
  void on_route_change(long delta) {
    if (delta > 0) {
      stability_.route_changes += delta;
      last_route_change_at_ = sim_.now();
    }
  }

 private:
  /// One node's superposed Poisson source.
  struct Source {
    net::NodeId src;
    traffic::PoissonProcess process;  ///< rate: the row's sum, packets/s
    util::Rng rng;                    ///< destination and size draws
    traffic::AliasTable::Range destinations;  ///< into destinations_
  };
  void schedule_arrival(std::size_t source_index);
  void apply_fault(std::uint32_t action_index);

  const net::Topology* topo_;
  NetworkConfig cfg_;
  Simulator sim_;
  PacketPool pool_;
  UpdatePool updates_;
  // Window statistics (reset_stats zeroes these).
  NetworkStats stats_;
  StabilityStats stability_;
  stats::TimeSeries drops_;
  util::SimTime last_fault_at_ = util::SimTime::zero();
  util::SimTime last_route_change_at_ = util::SimTime::zero();
  /// Live whole-run counters (the engine/pool fields are read from sim_ and
  /// pool_ directly in counters()).
  obs::Counters counters_;
  std::uint64_t packet_seq_ = 0;
  util::Rng rng_;
  traffic::PacketSizer sizer_;
  /// Declared before psns_ so it outlives every PSN that borrows it.
  routing::SpfScratch spf_scratch_;
  std::vector<std::unique_ptr<Psn>> psns_;
  std::vector<Source> sources_;
  /// Every source's destination table, in one flat column array.
  traffic::AliasTable destinations_;
  routing::MinHopTable min_hop_table_;
  std::function<void(const Packet&)> delivery_hook_;
  PacketTracer* tracer_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
  bool traffic_enabled_ = true;
  util::SimTime window_start_ = util::SimTime::zero();
  std::vector<stats::TimeSeries> link_busy_;
  std::vector<double> last_reported_cost_;
  /// Mutable view of the topology's link records (line-type upgrades swap
  /// type and rate in place); indexed by LinkId like the topology's own.
  std::vector<net::Link> effective_links_;
  /// Compiled fault schedule (empty unless install_faults was called).
  std::vector<FaultAction> fault_actions_;
};

}  // namespace arpanet::sim
