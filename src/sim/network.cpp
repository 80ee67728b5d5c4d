#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/net/line_type.h"
#include "src/util/check.h"

namespace arpanet::sim {

namespace {

/// `link`'s record after an upgrade to line type `type`: the type and its
/// rate change, the propagation delay (trunk mileage) does not.
net::Link upgraded(net::Link link, net::LineType type) {
  link.type = type;
  link.rate = net::info(type).rate;
  return link;
}

}  // namespace

Network::Network(const net::Topology& topo, NetworkConfig cfg)
    : topo_{&topo},
      cfg_{cfg},
      drops_{kStatsBucket},
      rng_{cfg.seed},
      sizer_{util::kAveragePacketBits},
      spf_scratch_{topo},
      min_hop_table_{routing::min_hop_lengths(topo)} {
  if (!topo.is_connected()) {
    throw std::invalid_argument("topology must be connected");
  }
  if (cfg.hop_limit < 1) {
    // A packet counts one hop at its first arrival, so a limit below 1
    // drops every packet not delivered there, exactly as a limit of 1 does.
    throw std::invalid_argument("hop_limit " + std::to_string(cfg.hop_limit) +
                                " must be >= 1");
  }
  if (cfg.hop_limit > std::numeric_limits<decltype(Packet::hops)>::max()) {
    throw std::invalid_argument("hop_limit " + std::to_string(cfg.hop_limit) +
                                " exceeds the packet's 16-bit hop count");
  }
  if (cfg.queue_capacity <= 0) {
    throw std::invalid_argument("queue_capacity " +
                                std::to_string(cfg.queue_capacity) +
                                " must be > 0");
  }
  if (cfg.measurement_period <= util::SimTime::zero()) {
    // A zero period would re-arm every PSN's timer at the same instant
    // forever; a negative one schedules into the past.
    throw std::invalid_argument("measurement_period must be > 0");
  }
  if (cfg.measurement_period > kMaxMeasurementPeriod) {
    throw std::invalid_argument(
        "measurement_period " + std::to_string(cfg.measurement_period.us()) +
        " us exceeds the bound of " +
        std::to_string(kMaxMeasurementPeriod.us()) + " us");
  }
  if (!std::isfinite(cfg.significance_threshold_override)) {
    // NaN would silently mean "use the metric's threshold", and +inf would
    // switch off on_cost_reported's report-to-report movement check.
    throw std::invalid_argument(
        "significance_threshold_override " +
        std::to_string(cfg.significance_threshold_override) +
        " must be finite");
  }
  if (cfg.multipath &&
      cfg.algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    throw std::invalid_argument(
        "multipath needs SPF routing; the distance-vector algorithm keeps "
        "one next hop per destination");
  }
  pool_.attach_update_pool(&updates_);
  std::size_t max_degree = 0;
  for (net::NodeId v = 0; v < topo.node_count(); ++v) {
    max_degree = std::max(max_degree, topo.out_links(v).size());
  }
  // A 1969 advertisement rides a slot's row with one distance per node.
  updates_.set_report_capacity(
      cfg.algorithm == routing::RoutingAlgorithm::kDistanceVector
          ? std::max(max_degree, topo.node_count())
          : max_degree);
  // Queue-bound packet working set: every output queue full (enqueue drops
  // beyond queue_capacity) plus a transmitting/propagating packet per link,
  // plus slack for flooded updates (not queue-capped, but short-lived).
  pool_.reserve(topo.link_count() *
                    (static_cast<std::size_t>(cfg.queue_capacity) + 2) +
                topo.node_count() * 8);
  // Every PSN starts from the same link state: one sequence-0 update per
  // origin, each link at its metric's initial cost, held by every PSN, so
  // the initial trees are consistent network-wide. The constructor holds
  // each seed until the PSNs do, so no seed ever counts as in flight (nor
  // toward the in-flight peak that sizes reserve_event_headroom).
  std::vector<UpdateHandle> seeds(topo.node_count());
  std::vector<const double*> seed_rows(topo.node_count());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    seeds[n] = updates_.acquire();
    routing::RoutingUpdate& seed = updates_.at(seeds[n]);
    seed.origin = n;
    for (const net::LinkId l : topo.out_links(n)) {
      seed.costs.push_back(
          metrics::LinkMetric{cfg.metric, topo.link(l), cfg.line_params}
              .initial_cost());
    }
    seed_rows[n] = seed.costs.data();
    updates_.hold(seeds[n]);
    updates_.release(seeds[n]);
  }
  effective_links_.assign(topo.links().begin(), topo.links().end());
  psns_.reserve(topo.node_count());
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    psns_.push_back(std::make_unique<Psn>(*this, n, seeds, seed_rows));
  }
  for (const UpdateHandle h : seeds) updates_.drop_hold(h);
  link_busy_.reserve(topo.link_count());
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    link_busy_.emplace_back(kStatsBucket);
  }
  for (const auto& psn : psns_) psn->start();
}

Network::~Network() = default;

void Network::add_traffic(const traffic::TrafficMatrix& matrix) {
  ARPA_CHECK(sources_.empty())
      << "add_traffic may be called at most once per network";
  if (matrix.nodes() != topo_->node_count()) {
    throw std::invalid_argument("traffic matrix size != node count");
  }
  std::size_t pairs = 0;
  for (net::NodeId s = 0; s < matrix.nodes(); ++s) {
    const std::span<const double> row = matrix.row(s);
    pairs += static_cast<std::size_t>(std::count_if(
        row.begin(), row.end(), [](double bps) { return bps > 0.0; }));
  }
  sources_.reserve(matrix.nodes());
  destinations_.reserve(pairs);
  for (net::NodeId s = 0; s < matrix.nodes(); ++s) {
    const std::span<const double> row = matrix.row(s);
    const double bps = std::accumulate(row.begin(), row.end(), 0.0);
    if (bps <= 0.0) continue;
    sources_.push_back(Source{
        s,
        traffic::PoissonProcess{bps / util::kAveragePacketBits, rng_.split(s)},
        rng_.split(s + 0x8000'0000ULL), destinations_.add(row)});
    schedule_arrival(sources_.size() - 1);
  }
}

void Network::schedule_arrival(std::size_t source_index) {
  Source& src = sources_[source_index];
  sim_.schedule_in(
      src.process.next_gap(),
      SimEvent::source_tick(*this, static_cast<std::uint32_t>(source_index)));
}

void Network::handle_event(SimEvent& ev) {
  switch (ev.kind()) {
    case SimEvent::Kind::kSourceTick: {
      if (!traffic_enabled_) break;  // stop_traffic(): let the queues drain
      Source& s = sources_[ev.index()];
      const net::NodeId dst = destinations_.sample(s.destinations, s.rng);
      psns_[s.src]->originate_data(dst, sizer_.sample(s.rng));
      schedule_arrival(ev.index());
      break;
    }
    case SimEvent::Kind::kPropagationArrival:
      psns_[topo_->link(ev.link()).to]->receive(ev.packet(), ev.link());
      break;
    case SimEvent::Kind::kTransmitComplete:
      psns_[ev.index()]->on_transmit_complete(ev.link(), ev.t1(), ev.t2(),
                                              ev.flag(), ev.packet());
      break;
    case SimEvent::Kind::kMeasurementPeriod:
      psns_[ev.index()]->measurement_period();
      break;
    case SimEvent::Kind::kDvTick:
      psns_[ev.index()]->dv_tick();
      break;
    case SimEvent::Kind::kFaultAction:
      apply_fault(ev.index());
      break;
    default:
      ARPA_CHECK(false) << "network dispatched unknown event kind "
                        << static_cast<int>(ev.kind());
  }
}

void Network::run_for(util::SimTime duration) { run_until(now() + duration); }

void Network::run_until(util::SimTime end) { sim_.run_until(end); }

void Network::reset_stats() {
  window_start_ = sim_.now();
  stats_ = NetworkStats{};
  stability_ = StabilityStats{};
  last_fault_at_ = window_start_;
  last_route_change_at_ = window_start_;
}

void Network::reserve_stats_until(util::SimTime end) {
  for (stats::TimeSeries& series : link_busy_) series.reserve_until(end);
  drops_.reserve_until(end);
}

void Network::on_delivered(const Packet& pkt) {
  ++stats_.packets_delivered;
  stats_.bits_delivered += pkt.bits;
  stats_.one_way_delay_ms.add((now() - pkt.created).ms());
  stats_.delay_histogram_ms.add((now() - pkt.created).ms());
  stats_.path_hops.add(pkt.hops);
  stats_.min_hops.add(min_hop_table_.at(pkt.src, pkt.dst));
  if (delivery_hook_) delivery_hook_(pkt);
}

void Network::on_queue_drop(const Packet& pkt) {
  (void)pkt;
  ++stats_.packets_dropped_queue;
  ++counters_.packets_dropped;
  drops_.add(now(), 1.0);
}

void Network::on_unreachable_drop(const Packet& pkt) {
  (void)pkt;
  ++stats_.packets_dropped_unreachable;
  ++counters_.packets_dropped;
}

void Network::on_loop_drop(const Packet& pkt) {
  (void)pkt;
  ++stats_.packets_dropped_loop;
  ++counters_.packets_dropped;
  drops_.add(now(), 1.0);
}

void Network::on_transmission(net::LinkId link, util::SimTime busy) {
  link_busy_[link].add(now(), static_cast<double>(busy.us()));
}

void Network::on_cost_reported(net::LinkId link, analysis::Cost previous,
                               analysis::Cost cost) {
  if (cost.value() != Psn::kDownLinkCost) {
    const metrics::LinkMetric& metric = link_metric(link);
    const metrics::CostBounds bounds = metric.bounds();
    analysis::check_cost_in_bounds(cost, analysis::Cost{bounds.min_cost},
                                   analysis::Cost{bounds.max_cost});
    if (hnspf_semantics() && previous.value() != Psn::kDownLinkCost) {
      analysis::check_movement_limited(
          previous, cost,
          cfg_.line_params.for_type(effective_links_[link].type),
          metric.significance(cfg_.significance_threshold_override).threshold);
    }
  }
  if (trace_sink_) trace_sink_->on_cost_reported(link, now(), cost.value());
}

void Network::on_period_measured(net::LinkId link, analysis::Cost previous,
                                 analysis::Cost candidate,
                                 analysis::Utilization busy_fraction) {
  analysis::check_utilization_in_range(busy_fraction);
  if (hnspf_semantics() && previous.value() != Psn::kDownLinkCost &&
      candidate.value() != Psn::kDownLinkCost) {
    const net::Link& l = effective_links_[link];
    // The exact section 4.3 bound: consecutive periods' costs differ by at
    // most the movement limit, with no threshold slack — HN-SPF limits the
    // candidate against the previous period's value whether or not either
    // was significant enough to flood.
    analysis::check_movement_limited(previous, candidate,
                                     cfg_.line_params.for_type(l.type),
                                     /*extra_slack=*/0.0);
    ++counters_.invariant_period_checks;
  }
  if (previous.value() != Psn::kDownLinkCost &&
      candidate.value() != Psn::kDownLinkCost) {
    const double movement = std::abs(candidate.value() - previous.value());
    if (movement > stability_.max_movement) {
      stability_.max_movement = movement;
    }
    const core::LineTypeParams& params =
        cfg_.line_params.for_type(effective_links_[link].type);
    if (movement > analysis::kCostSlack &&
        busy_fraction.value() <= params.flat_threshold) {
      ++stability_.flat_oscillations;
    }
  }
  if (trace_sink_) {
    trace_sink_->on_utilization(link, now(), busy_fraction.value());
  }
}

double Network::link_utilization(net::LinkId id, std::size_t bucket) const {
  const double busy_us = link_busy_.at(id).bucket(bucket);
  return busy_us / static_cast<double>(kStatsBucket.us());
}

void Network::set_trunk_up(net::LinkId link, bool up) {
  const net::Link& l = topo_->link(link);
  psns_[l.from]->set_local_link_up(l.id, up);
  psns_[l.to]->set_local_link_up(l.reverse, up);
}

routing::PathTrace Network::current_route(net::NodeId src,
                                          net::NodeId dst) const {
  return routing::trace_path(*topo_, src, dst,
                             [&](net::NodeId at, net::NodeId to) {
                               return psns_[at]->next_hop(to);
                             });
}

void Network::set_node_up(net::NodeId node, bool up) {
  for (const net::LinkId lid : topo_->out_links(node)) {
    set_trunk_up(lid, up);
  }
}

bool Network::link_admin_up(net::LinkId link) const {
  const net::Link& l = topo_->link(link);
  return psns_[l.from]->link_up(l.id);
}

void Network::install_faults(const FaultPlan& plan, util::SimTime horizon) {
  ARPA_CHECK(fault_actions_.empty())
      << "install_faults may be called at most once per network";
  fault_actions_ = plan.compile(*topo_, horizon);
  for (std::uint32_t i = 0; i < fault_actions_.size(); ++i) {
    const FaultAction& a = fault_actions_[i];
    if (a.op == FaultAction::Op::kUpgrade) {
      // Builds and discards the upgraded line's metric, so parameters the
      // new type cannot run with are rejected now rather than mid-run.
      for (const net::LinkId l : {a.link, effective_links_[a.link].reverse}) {
        (void)metrics::LinkMetric{cfg_.metric,
                                  upgraded(effective_links_[l], a.new_type),
                                  cfg_.line_params};
      }
    }
    sim_.schedule_at(a.at, SimEvent::fault_action(*this, i));
  }
}

void Network::apply_fault(std::uint32_t action_index) {
  const FaultAction& a = fault_actions_[action_index];
  switch (a.op) {
    case FaultAction::Op::kLinkDown:
    case FaultAction::Op::kLinkUp:
      set_trunk_up(a.link, a.op == FaultAction::Op::kLinkUp);
      break;
    case FaultAction::Op::kNodeDown:
    case FaultAction::Op::kNodeUp:
      set_node_up(a.node, a.op == FaultAction::Op::kNodeUp);
      break;
    case FaultAction::Op::kUpgrade:
      for (const net::LinkId l : {a.link, effective_links_[a.link].reverse}) {
        net::Link& rec = effective_links_[l];
        rec = upgraded(rec, a.new_type);
        psns_[rec.from]->upgrade_local_link(l);
      }
      break;
  }
  ++stability_.faults_applied;
  last_fault_at_ = now();
}

StabilityStats Network::stability() const {
  StabilityStats s = stability_;
  if (s.faults_applied > 0 && last_route_change_at_ >= last_fault_at_) {
    s.reconverge_sec = (last_route_change_at_ - last_fault_at_).sec();
  }
  return s;
}

void Network::reserve_event_headroom() {
  sim_.reserve_events(4 * sim_.queue_peak_depth());
  // The versions the PSNs hold, plus twice the in-flight peak, and at least
  // one update in flight per origin: a quiet warm-up (D-SPF on a small net)
  // may flood nothing, leaving no peak to double for a fault's floods.
  updates_.reserve(updates_.held() +
                   std::max(2 * updates_.peak_in_flight(), topo_->node_count()));
}

obs::Counters Network::counters() const {
  obs::Counters c = counters_;
  c.events_processed = sim_.events_processed();
  c.event_queue_peak_depth = sim_.queue_peak_depth();
  c.event_queue_slab_slots = sim_.queue_slab_slots();
  c.event_queue_resizes = sim_.queue_resizes();
  c.event_queue_overflow_scheduled = sim_.queue_overflow_scheduled();
  c.packet_pool_slots = pool_.slots();
  c.packet_pool_acquired = pool_.acquired();
  c.packet_pool_recycled = pool_.recycled();
  for (const auto& psn : psns_) {
    const routing::IncrementalSpf& spf = psn->spf();
    c.spf_full += static_cast<std::uint64_t>(spf.full_recomputes());
    c.spf_incremental += static_cast<std::uint64_t>(spf.incremental_updates());
    c.spf_skipped += static_cast<std::uint64_t>(spf.skipped_updates());
    c.spf_nodes_touched += static_cast<std::uint64_t>(spf.nodes_touched());
  }
  return c;
}

stats::NetworkIndicators Network::indicators(std::string label) const {
  const NetworkStats& st = stats();
  const double window_sec = window_length().sec();
  stats::NetworkIndicators ind;
  ind.label = std::move(label);
  if (window_sec <= 0.0) return ind;
  ind.internode_traffic_kbps = st.bits_delivered / window_sec / 1e3;
  ind.round_trip_delay_ms = 2.0 * st.one_way_delay_ms.mean();
  ind.updates_per_trunk_sec =
      static_cast<double>(st.update_packets_sent) /
      static_cast<double>(topo_->trunk_count()) / window_sec;
  ind.update_period_per_node_sec =
      st.updates_originated > 0
          ? window_sec * static_cast<double>(topo_->node_count()) /
                static_cast<double>(st.updates_originated)
          : 0.0;
  ind.actual_path_hops = st.path_hops.mean();
  ind.minimum_path_hops = st.min_hops.mean();
  ind.packets_dropped_per_sec =
      static_cast<double>(st.packets_dropped_queue) / window_sec;
  ind.delivered_packets_per_sec =
      static_cast<double>(st.packets_delivered) / window_sec;
  ind.delay_p50_ms = st.delay_histogram_ms.quantile(0.50);
  ind.delay_p95_ms = st.delay_histogram_ms.quantile(0.95);
  ind.delay_p99_ms = st.delay_histogram_ms.quantile(0.99);
  return ind;
}

}  // namespace arpanet::sim
