#include "src/sim/psn.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/sim/network.h"
#include "src/util/check.h"

namespace arpanet::sim {

Psn::Psn(Network& net, net::NodeId id, std::span<const UpdateHandle> seeds,
         std::span<const double* const> seed_rows)
    : net_{net},
      id_{id},
      held_(seeds.begin(), seeds.end()),
      spf_{net.topology(), id, seed_rows, net.spf_scratch()} {
  for (const UpdateHandle h : held_) net.update_pool().hold(h);
  const net::Topology& topo = net.topology();
  const NetworkConfig& cfg = net.config();
  out_.reserve(topo.out_links(id).size());
  metrics_.reserve(topo.out_links(id).size());
  for (const net::LinkId lid : topo.out_links(id)) {
    const net::Link& link = topo.link(lid);
    const metrics::LinkMetric& metric =
        metrics_.emplace_back(cfg.metric, link, cfg.line_params);
    metrics::SignificanceFilter filter{
        metric.significance(cfg.significance_threshold_override)};
    const double initial = metric.initial_cost();
    filter.force_report(initial);
    out_.emplace_back(lid,
                      metrics::DelayMeasurement{link.rate, link.prop_delay},
                      filter, initial);
  }
  // Sized up front so the first fault-driven origination (which can precede
  // the first measurement period) already finds warm storage.
  candidate_scratch_.reserve(out_.size());
}

void Psn::start() {
  if (net_.config().algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    const std::size_t n = net_.topology().node_count();
    dv_dist_.assign(n, kUnreachable);
    dv_dist_[id_] = 0.0;
    dv_next_.assign(n, net::kInvalidLink);
    dv_neighbor_.assign(out_.size() * n, kUnreachable);
    next_hops_ = dv_next_;
    const util::SimTime offset = util::SimTime::from_us(
        kDvExchangePeriod.us() * (static_cast<std::int64_t>(id_) % 16) / 16);
    net_.simulator().schedule_in(kDvExchangePeriod + offset,
                                 SimEvent::dv_tick(net_, id_));
    return;
  }
  next_hops_ = spf_.tree().first_hop;
  // Measurement periods are staggered across nodes (the real PSNs' clocks
  // were unsynchronized); the *response* to an update is still
  // near-simultaneous network-wide because flooding is fast.
  const util::SimTime period = net_.config().measurement_period;
  const auto nodes = static_cast<std::int64_t>(net_.topology().node_count());
  const util::SimTime offset = util::SimTime::from_us(
      period.us() * (static_cast<std::int64_t>(id_) % nodes) / std::max<std::int64_t>(nodes, 1));
  net_.simulator().schedule_in(period + offset,
                               SimEvent::measurement_period(net_, id_));
}

std::size_t Psn::out_index(net::LinkId link) const {
  // out_ was filled in out_links(id_) order, so the CSR slot of the link
  // within its from-node's span is also its index here.
  const net::Topology& topo = net_.topology();
  if (link >= topo.link_count() || topo.link(link).from != id_) {
    throw std::out_of_range("link is not an out-link of this PSN");
  }
  return topo.out_pos(link);
}

double Psn::reported_cost(net::LinkId out_link) const {
  return out_[out_index(out_link)].reported;
}

bool Psn::link_up(net::LinkId out_link) const {
  return out_[out_index(out_link)].up;
}

void Psn::originate_data(net::NodeId dst, double bits) {
  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.acquire();
  Packet& pkt = pool.at(h);
  pkt.id = net_.next_packet_id();
  pkt.kind = Packet::Kind::kData;
  pkt.src = id_;
  pkt.dst = dst;
  pkt.bits = bits;
  pkt.created = net_.now();
  net_.on_generated();
  net_.trace(TraceEventKind::kOriginated, pkt, id_);
  forward(h);
}

void Psn::originate_packet(const Packet& pkt) {
  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.acquire(pkt);
  Packet& p = pool.at(h);
  p.id = net_.next_packet_id();
  p.src = id_;
  p.created = net_.now();
  net_.on_generated();
  net_.trace(TraceEventKind::kOriginated, p, id_);
  forward(h);
}

// ARPALINT-HOTPATH-BEGIN: the per-packet forwarding core — receive,
// route, enqueue, transmit completion — runs once per hop.
void Psn::receive(PacketHandle h, net::LinkId via_link) {
  PacketPool& pool = net_.packet_pool();
  Packet& pkt = pool.at(h);
  ++pkt.hops;
  if (pkt.kind == Packet::Kind::kRoutingUpdate) {
    handle_update(h, via_link);
    return;
  }
  if (pkt.kind == Packet::Kind::kDistanceVector) {
    handle_distance_vector(h, via_link);
    return;
  }
  if (pkt.dst == id_) {
    net_.trace(TraceEventKind::kDelivered, pkt, id_, via_link);
    net_.on_delivered(pkt);
    pool.release(h);
    return;
  }
  // A hop budget keeps packets finite under the 1969 algorithm's transient
  // loops (SPF forwarding never loops between consistent tables, so the
  // budget is inert there). Loop drops are an observable statistic.
  if (pkt.hops >= net_.config().hop_limit) {
    net_.trace(TraceEventKind::kDroppedLoop, pkt, id_, via_link);
    net_.on_loop_drop(pkt);
    pool.release(h);
    return;
  }
  forward(h);
}

void Psn::forward(PacketHandle h) {
  Packet& pkt = net_.packet_pool().at(h);
  net::LinkId next = net::kInvalidLink;
  if (net_.config().multipath) {
    if (mp_dirty_) {
      // ARPALINT-ALLOW(hot-path-alloc): the lazy multipath rebuild runs per
      // cost change, not per packet, and only when multipath is enabled.
      mp_sets_ = routing::MultipathSets::compute(
          net_.topology(), id_, spf_.costs(), kMultipathTolerance);
      // ARPALINT-ALLOW(hot-path-alloc): cursor vector retains capacity.
      mp_cursor_.assign(net_.topology().node_count(), 0);
      mp_dirty_ = false;
    }
    const std::span<const net::LinkId> hops = mp_sets_.next_hops(pkt.dst);
    if (!hops.empty()) {
      next = hops[mp_cursor_[pkt.dst]++ % hops.size()];
    }
  } else {
    next = next_hops_[pkt.dst];
  }
  if (next == net::kInvalidLink) {
    net_.trace(TraceEventKind::kDroppedUnreachable, pkt, id_);
    net_.on_unreachable_drop(pkt);
    net_.packet_pool().release(h);
    return;
  }
  enqueue(out_[out_index(next)], h, /*priority=*/false);
}

void Psn::enqueue(OutLink& out, PacketHandle h, bool priority) {
  Packet& pkt = net_.packet_pool().at(h);
  if (!out.up) {
    // A dead line accepts nothing: whatever is routed or flooded onto it is
    // lost. Flooded updates are redundant by design and not a charged drop;
    // data packets count against the line's queue.
    if (!priority) {
      net_.trace(TraceEventKind::kDroppedQueue, pkt, id_, out.id);
      net_.on_queue_drop(pkt);
    }
    net_.packet_pool().release(h);
    return;
  }
  pkt.enqueued = net_.now();
  if (priority) {
    net_.trace(TraceEventKind::kEnqueued, pkt, id_, out.id);
    net_.packet_pool().enqueue(out.update_q, h);
  } else {
    if (static_cast<int>(out.data_q.size()) >= net_.config().queue_capacity) {
      net_.trace(TraceEventKind::kDroppedQueue, pkt, id_, out.id);
      net_.on_queue_drop(pkt);
      net_.packet_pool().release(h);
      return;
    }
    net_.trace(TraceEventKind::kEnqueued, pkt, id_, out.id);
    net_.packet_pool().enqueue(out.data_q, h);
  }
  maybe_start_tx(out);
}

// Empties a dead line's queues: a trunk loses everything it was holding the
// moment it goes down. Pool releases recycle handles from the freelist, so
// this stays clean inside the zero-allocation measurement window.
void Psn::drop_queued(OutLink& out) {
  PacketPool& pool = net_.packet_pool();
  while (!out.update_q.empty()) pool.release(pool.dequeue(out.update_q));
  while (!out.data_q.empty()) {
    const PacketHandle h = pool.dequeue(out.data_q);
    net_.trace(TraceEventKind::kDroppedQueue, pool.at(h), id_, out.id);
    net_.on_queue_drop(pool.at(h));
    pool.release(h);
  }
}

void Psn::maybe_start_tx(OutLink& out) {
  if (out.busy || !out.up) return;
  PacketFifo* q = nullptr;
  if (!out.update_q.empty()) {
    q = &out.update_q;
  } else if (!out.data_q.empty()) {
    q = &out.data_q;
  } else {
    return;
  }

  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.dequeue(*q);
  out.busy = true;

  // The effective link record: a mid-run line-type upgrade changes the rate.
  const net::Link& link = net_.effective_link(out.id);
  const Packet& pkt = pool.at(h);
  const util::SimTime queue_delay = net_.now() - pkt.enqueued;
  const util::SimTime tx = link.rate.transmission_time(pkt.bits);
  // Both update kinds (flooded link costs, distance vectors) count as
  // routing overhead.
  const bool is_update = pkt.kind != Packet::Kind::kData;

  // The packet rides the typed completion event; no closure, no copy.
  net_.simulator().schedule_in(
      tx, SimEvent::transmit_complete(net_, id_, out.id, h, queue_delay, tx,
                                      is_update));
}

void Psn::on_transmit_complete(net::LinkId link, util::SimTime queue_delay,
                               util::SimTime tx_time, bool is_update,
                               PacketHandle pkt) {
  OutLink& o = out_[out_index(link)];
  if (!o.up) {
    // The line died while the packet was serializing onto it: the packet is
    // lost, and the queues were already drained by set_local_link_up.
    if (!is_update) {
      net_.trace(TraceEventKind::kDroppedQueue, net_.packet_pool().at(pkt),
                 id_, link);
      net_.on_queue_drop(net_.packet_pool().at(pkt));
    }
    net_.packet_pool().release(pkt);
    o.busy = false;
    return;
  }
  o.meas.record_packet(queue_delay, tx_time);
  net_.on_transmission(link, tx_time);
  net_.trace(TraceEventKind::kTransmitted, net_.packet_pool().at(pkt), id_,
             link);
  if (is_update) {
    net_.on_update_packet_sent();
  } else {
    net_.on_data_packet_sent();
  }
  // Hand the packet to the propagation medium; it arrives at the neighbor
  // prop_delay later (Network routes it to the peer PSN).
  net_.deliver_to_peer(link, pkt);
  o.busy = false;
  maybe_start_tx(o);
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: update receipt + flooding, once per flooded copy.
UpdateHandle Psn::take_payload(PacketHandle h) {
  PacketPool& pool = net_.packet_pool();
  // Take over the packet's reference before the slot is reset, keeping the
  // pooled payload alive past the release.
  const UpdateHandle uh =
      std::exchange(pool.at(h).update, kInvalidUpdateHandle);
  pool.release(h);
  if (uh == kInvalidUpdateHandle) {
    throw std::logic_error("routing packet without payload");
  }
  return uh;
}

void Psn::send_copy(OutLink& out, UpdateHandle payload, Packet::Kind kind,
                    net::NodeId src, double bits) {
  PacketPool& pool = net_.packet_pool();
  const PacketHandle h = pool.acquire();
  Packet& pkt = pool.at(h);
  pkt.id = net_.next_packet_id();
  pkt.kind = kind;
  pkt.src = src;
  pkt.bits = bits;
  pkt.created = net_.now();
  pkt.update = payload;
  net_.update_pool().add_ref(payload);
  enqueue(out, h, /*priority=*/true);
}

void Psn::handle_update(PacketHandle h, net::LinkId via_link) {
  UpdatePool& updates = net_.update_pool();
  const UpdateHandle uh = take_payload(h);
  const routing::RoutingUpdate& update = updates.at(uh);
  // A higher sequence number always supersedes the held update; an equal
  // or lower one is a copy already seen (or older news).
  if (update.seq <= updates.at(held_[update.origin]).seq) {
    updates.release(uh);
    return;
  }
  adopt(uh);
  flood_copies(uh, via_link);
  updates.release(uh);
}

void Psn::adopt(UpdateHandle uh) {
  UpdatePool& updates = net_.update_pool();
  const routing::RoutingUpdate& update = updates.at(uh);
  const long hops_before = spf_.first_hop_changes();
  spf_.adopt_row(update.origin, update.costs.data());
  net_.on_route_change(spf_.first_hop_changes() - hops_before);
  mp_dirty_ = true;
  updates.hold(uh);
  updates.drop_hold(std::exchange(held_[update.origin], uh));
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: the 10-second metric timer fires throughout the
// measurement window on every node.
void Psn::measurement_period() {
  // ARPALINT-ALLOW(hot-path-alloc): persistent scratch retains capacity
  candidate_scratch_.assign(out_.size(), 0.0);
  std::span<double> candidates{candidate_scratch_};
  bool significant = false;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    OutLink& o = out_[i];
    const metrics::PeriodMeasurement m =
        o.meas.end_period(net_.config().measurement_period);
    candidates[i] = o.up ? metrics_[i].on_period(m) : kDownLinkCost;
    net_.on_period_measured(o.id, analysis::Cost{o.last_candidate},
                            analysis::Cost{candidates[i]},
                            analysis::Utilization{m.busy_fraction});
    o.last_candidate = candidates[i];
    if (o.filter.should_report(candidates[i])) significant = true;
  }
  if (significant) originate_update(candidates);

  net_.simulator().schedule_in(net_.config().measurement_period,
                               SimEvent::measurement_period(net_, id_));
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: update origination runs inside the measurement
// window whenever a period's cost change is significant.
void Psn::originate_update(std::span<const double> candidates) {
  UpdatePool& updates = net_.update_pool();
  const std::uint64_t seq = updates.at(held_[id_]).seq + 1;
  const UpdateHandle uh = updates.acquire();
  routing::RoutingUpdate& update = updates.at(uh);
  update.origin = id_;
  update.seq = seq;
  for (std::size_t i = 0; i < out_.size(); ++i) {
    OutLink& o = out_[i];
    // Every advertised cost must keep SPF well-defined (positive, finite);
    // the metric transforms guarantee it, the flooding layer relies on it.
    ARPA_DCHECK(candidates[i] > 0.0 && candidates[i] <= kDownLinkCost)
        << "link " << o.id << " produced unusable cost " << candidates[i];
    // The node reports all its links in one update; values that didn't
    // trip the filter themselves become the new baseline anyway.
    o.filter.force_report(candidates[i]);
    o.reported = candidates[i];
    // ARPALINT-ALLOW(hot-path-alloc): recycled slots keep their row capacity
    update.costs.push_back(candidates[i]);
    net_.on_cost_reported(o.id, candidates[i]);
  }
  // The row is every PSN's view of this node's links: it must cover them
  // all, in out_links order (out_ was built in that order).
  ARPA_CHECK(update.costs.size() == net_.topology().out_links(id_).size())
      << "update from " << id_ << " reports " << update.costs.size()
      << " of " << net_.topology().out_links(id_).size() << " out-links";
  // Adopt at once: the PSN's own map always reflects its own latest
  // reports, and holding the update rejects its flooded-back copies.
  adopt(uh);
  net_.on_update_originated();
  flood_copies(uh, net::kInvalidLink);
  updates.release(uh);
}

void Psn::flood_copies(UpdateHandle update, net::LinkId arrived_on) {
  const net::LinkId except =
      arrived_on == net::kInvalidLink
          ? net::kInvalidLink
          : net_.topology().link(arrived_on).reverse;
  const routing::RoutingUpdate& u = net_.update_pool().at(update);
  for (OutLink& o : out_) {
    if (o.id == except) continue;
    send_copy(o, update, Packet::Kind::kRoutingUpdate, u.origin, u.wire_bits());
  }
}
// ARPALINT-HOTPATH-END

// ---- the 1969 distance-vector mode ----

double Psn::dv_link_metric(const OutLink& out) const {
  // "The link metric was simply the instantaneous queue length at the moment
  // of updating plus a fixed constant" (section 2.1).
  if (!out.up) return kUnreachable;
  return static_cast<double>(out.data_q.size() + out.update_q.size()) +
         kDvBias;
}

void Psn::dv_tick() {
  dv_recompute();
  dv_advertise();
  net_.simulator().schedule_in(kDvExchangePeriod,
                               SimEvent::dv_tick(net_, id_));
}

void Psn::dv_recompute() {
  const std::size_t n = net_.topology().node_count();
  for (net::NodeId dst = 0; dst < n; ++dst) {
    if (dst == id_) continue;
    double best = kUnreachable;
    net::LinkId best_link = net::kInvalidLink;
    for (std::size_t i = 0; i < out_.size(); ++i) {
      const double neighbor_dist = dv_neighbor_[i * n + dst];
      if (neighbor_dist >= kUnreachable) continue;
      const double cand = dv_link_metric(out_[i]) + neighbor_dist;
      if (cand < best || (cand == best && out_[i].id < best_link)) {
        best = cand;
        best_link = out_[i].id;
      }
    }
    dv_dist_[dst] = best;
    dv_next_[dst] = best_link;
  }
}

// ARPALINT-HOTPATH-BEGIN: the 1969 exchange runs every 2/3 s on every node
// and its copies cross every link, inside the measurement window.
// A table exchange is not a link-state origination: its copies count only
// in update_packets_sent, when they finish transmitting.
void Psn::dv_advertise() {
  UpdatePool& payloads = net_.update_pool();
  const UpdateHandle uh = payloads.acquire();
  routing::RoutingUpdate& advert = payloads.at(uh);
  advert.origin = id_;
  // ARPALINT-ALLOW(hot-path-alloc): pooled rows are reserved to node count
  advert.costs.assign(dv_dist_.begin(), dv_dist_.end());
  // Wire size: header plus one 16-bit distance per destination — the
  // full-table exchange that made the original scheme costly on slow lines.
  const double bits = 128.0 + 16.0 * static_cast<double>(dv_dist_.size());
  for (OutLink& o : out_) {
    send_copy(o, uh, Packet::Kind::kDistanceVector, id_, bits);
  }
  payloads.release(uh);
}

void Psn::handle_distance_vector(PacketHandle h, net::LinkId via_link) {
  UpdatePool& payloads = net_.update_pool();
  const UpdateHandle uh = take_payload(h);
  const net::Topology& topo = net_.topology();
  const net::LinkId out_link = topo.link(via_link).reverse;
  if (topo.link(out_link).from != id_) {
    throw std::logic_error("distance vector arrived over unknown link");
  }
  // The advertisement's row is one distance per node; it overwrites the
  // neighbor's row of dv_neighbor_ in place.
  const std::vector<double>& dist = payloads.at(uh).costs;
  ARPA_CHECK(dist.size() == dv_dist_.size())
      << "distance vector of " << dist.size() << " entries";
  std::copy(dist.begin(), dist.end(),
            dv_neighbor_.data() + topo.out_pos(out_link) * dist.size());
  payloads.release(uh);
  // The original algorithm re-minimized on new information.
  dv_recompute();
}
// ARPALINT-HOTPATH-END

// ARPALINT-HOTPATH-BEGIN: fault plans flap links inside the measurement
// window (flap storms run at 1 Hz); admin-state changes must stay on the
// warm slab like every other in-window path.
void Psn::set_local_link_up(net::LinkId out_link, bool up) {
  const std::size_t idx = out_index(out_link);
  OutLink& o = out_[idx];
  metrics::LinkMetric& metric = metrics_[idx];
  if (o.up == up) return;
  o.up = up;
  // A dead line's queues are drained and stay empty (enqueue drops onto
  // it), so one coming back up has nothing to start transmitting.
  if (up) {
    metric.on_link_up();
  } else {
    drop_queued(o);
  }
  if (net_.config().algorithm == routing::RoutingAlgorithm::kDistanceVector) {
    // No flooded updates in 1969 mode: the change shows up as an
    // unreachable metric in the next table exchanges.
    dv_recompute();
    return;
  }
  // "When a link comes up it starts with its highest cost" (section 5.4).
  originate_restart(idx, up ? metric.initial_cost() : kDownLinkCost);
}

void Psn::upgrade_local_link(net::LinkId out_link) {
  const std::size_t idx = out_index(out_link);
  OutLink& o = out_[idx];
  // Network::apply_fault already swapped the effective link record, so
  // the new type, rate and propagation delay are what the metric and the
  // measurement see.
  const net::Link& link = net_.effective_link(out_link);
  const NetworkConfig& cfg = net_.config();
  const metrics::LinkMetric& metric = metrics_[idx] =
      metrics::LinkMetric{cfg.metric, link, cfg.line_params};
  o.meas = metrics::DelayMeasurement{link.rate, link.prop_delay};
  o.filter = metrics::SignificanceFilter{
      metric.significance(cfg.significance_threshold_override)};
  // No flooded updates in 1969 mode (as in set_local_link_up).
  if (cfg.algorithm == routing::RoutingAlgorithm::kDistanceVector) return;
  if (!o.up) {
    // Upgraded while down: keep advertising kDownLinkCost; the new line
    // eases in when the trunk heals (set_local_link_up's restart path).
    o.filter.force_report(kDownLinkCost);
    return;
  }
  // A line-type change restarts the link's cost history: advertise the new
  // type's highest cost and decay in, exactly like a restarted link.
  originate_restart(idx, metric.initial_cost());
}

void Psn::originate_restart(std::size_t idx, double cost) {
  // The next period's movement is limited against the restart cost, not
  // whatever the link reported before.
  out_[idx].last_candidate = cost;
  // Safe to share measurement_period's scratch: every caller runs only as
  // a top-level event handler and originate_update re-enters none of them.
  // ARPALINT-ALLOW(hot-path-alloc): persistent scratch retains capacity
  candidate_scratch_.assign(out_.size(), 0.0);
  for (std::size_t i = 0; i < out_.size(); ++i) {
    candidate_scratch_[i] = out_[i].reported;
  }
  candidate_scratch_[idx] = cost;
  originate_update(candidate_scratch_);
}
// ARPALINT-HOTPATH-END

}  // namespace arpanet::sim
