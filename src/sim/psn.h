// PSN: one packet-switching node.
//
// Each PSN owns, exactly as in the ARPANET scheme:
//   * its link-state store: per origin, the latest routing update it
//     accepted (a held sim::UpdatePool slot), whose cost row is its view of
//     that origin's links; the update's sequence number is also the
//     duplicate-suppression state for flooding,
//   * a resident incremental SPF reading its costs from those rows (its
//     pass workspace is the Network's, shared by all PSNs),
//   * destination-based single-path forwarding: one next-hop table, bound
//     at start() to its tree's first hops, or to the distance-vector next
//     hops under the 1969 baseline,
//   * per-outgoing-link output queues — routing updates at high priority,
//     data FIFO behind them, finite data buffering with tail drop,
//   * the 10-second delay measurement and the link metric (min-hop, D-SPF
//     or HN-SPF) feeding the significance filter.
//
// The PSN calls back into Network for scheduling, packet hand-off to the
// neighbor PSN, and statistics.

#pragma once

#include <span>
#include <vector>

#include "src/metrics/delay_measurement.h"
#include "src/metrics/link_metric.h"
#include "src/metrics/significance.h"
#include "src/net/topology.h"
#include "src/routing/algorithm.h"
#include "src/routing/multipath.h"
#include "src/routing/spf.h"
#include "src/sim/event.h"
#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/util/units.h"

namespace arpanet::sim {

class Network;

class Psn {
 public:
  /// Starts from the Network's seed versions: seeds[u] is origin u's
  /// sequence-0 update, whose cost row is seed_rows[u]. The PSN holds every
  /// seed until a newer update from its origin replaces it.
  Psn(Network& net, net::NodeId id, std::span<const UpdateHandle> seeds,
      std::span<const double* const> seed_rows);
  // next_hops_ views this PSN's own tables; a copy would view the original's.
  Psn(const Psn&) = delete;
  Psn& operator=(const Psn&) = delete;

  /// Binds the next-hop table forwarding reads and schedules the first
  /// measurement period, or the first 1969 table exchange (staggered per
  /// node).
  void start();

  /// A locally attached host hands in a packet for `dst`.
  void originate_data(net::NodeId dst, double bits);

  /// Host layer entry: injects a pre-framed packet (message fields set by
  /// the caller); the PSN stamps id/src/created and forwards it.
  void originate_packet(const Packet& pkt);

  /// A pooled packet arrives from a neighbor over `via_link` (an in-link of
  /// this node). Ownership of the handle transfers to the PSN.
  void receive(PacketHandle pkt, net::LinkId via_link);

  // ---- typed-event completions (called by Network::handle_event) ----
  /// The transmitter on `link` finished serializing the pooled packet.
  void on_transmit_complete(net::LinkId link, util::SimTime queue_delay,
                            util::SimTime tx_time, bool is_update,
                            PacketHandle pkt);
  /// The 10-second measurement-period timer fired.
  void measurement_period();
  /// The 1969 distance-vector exchange timer fired.
  void dv_tick();

  [[nodiscard]] net::NodeId id() const { return id_; }
  [[nodiscard]] const routing::SpfTree& tree() const { return spf_.tree(); }
  [[nodiscard]] const routing::IncrementalSpf& spf() const { return spf_; }
  /// The update this PSN last accepted from `origin` (its sequence-0 seed
  /// until the origin's first update arrives).
  [[nodiscard]] UpdateHandle held_update(net::NodeId origin) const {
    return held_.at(origin);
  }

  /// Cost this node's metric most recently reported for one of its own
  /// outgoing links: its entry in the node's own held update.
  [[nodiscard]] double reported_cost(net::LinkId out_link) const;

  /// The metric running on one of this node's outgoing links.
  [[nodiscard]] const metrics::LinkMetric& metric(net::LinkId out_link) const {
    return metrics_[out_index(out_link)];
  }

  /// The out-link single-path forwarding takes toward `dst`
  /// (net::kInvalidLink if none): the tree's first hop under SPF, the
  /// table's next hop under the distance-vector algorithm.
  [[nodiscard]] net::LinkId next_hop(net::NodeId dst) const {
    return next_hops_[dst];
  }

  /// Distance-vector mode: this node's estimated distance to `dst`.
  [[nodiscard]] double dv_distance(net::NodeId dst) const { return dv_dist_.at(dst); }

  /// Marks a local outgoing link up/down. Down links advertise
  /// kDownLinkCost and stop transmitting; on up, the metric eases back in.
  void set_local_link_up(net::LinkId out_link, bool up);

  /// Administrative state of one local outgoing link.
  [[nodiscard]] bool link_up(net::LinkId out_link) const;

  /// Rebuilds one local out-link's metric, measurement and filter state
  /// from its effective link record after a mid-run line-type upgrade
  /// (Network::apply_fault); none of it allocates. If the link is up, the
  /// upgraded type's highest cost is flooded immediately (the section 5.4
  /// restart rule — a changed line eases in exactly like a restarted one).
  void upgrade_local_link(net::LinkId out_link);

  /// Cost advertised for an unusable link: finite (so SPF stays total) but
  /// large enough that no path uses it unless the network is partitioned.
  static constexpr double kDownLinkCost = 1e7;

  /// Distance-vector "infinity": estimates at or above this are treated as
  /// unreachable.
  static constexpr double kUnreachable = 1e9;

  /// Distance-vector mode: table exchange interval ("every 2/3 seconds").
  static constexpr util::SimTime kDvExchangePeriod =
      util::SimTime::from_us(666'667);
  /// Distance-vector mode: the fixed constant added to the instantaneous
  /// queue length.
  static constexpr double kDvBias = 1.0;

  /// Costs within this many routing units count as "equal" for multipath —
  /// measured metrics never produce exact ties. HN-SPF reports a link only
  /// when it moves by a little less than a half-hop (14 units on a 56 kb/s
  /// line), so two paths that differ in one link each can be a full hop
  /// (30 units) apart on the map while equal on the wire. Only downstream
  /// neighbors join a set, so the tolerance never admits a loop.
  static constexpr double kMultipathTolerance = 30.0;

 private:
  struct OutLink {
    net::LinkId id = net::kInvalidLink;
    /// Waiting pooled packets, linked through the Network's packet pool:
    /// the queues own no storage and never move a Packet; enqueue() stamps
    /// Packet::enqueued.
    PacketFifo data_q;
    PacketFifo update_q;
    bool busy = false;
    bool up = true;
    metrics::DelayMeasurement meas;
    metrics::SignificanceFilter filter;
    /// Previous measurement period's candidate cost (reported or not) —
    /// the baseline the per-period movement invariant is checked against.
    double last_candidate = 0.0;

    OutLink(net::LinkId lid, metrics::DelayMeasurement m,
            metrics::SignificanceFilter f, double initial)
        : id{lid}, meas{m}, filter{f}, last_candidate{initial} {}
  };

  /// Index of `link` in out_ and metrics_; throws std::out_of_range unless
  /// it is one of this node's outgoing links.
  [[nodiscard]] std::size_t out_index(net::LinkId link) const;

  void forward(PacketHandle pkt);
  void enqueue(OutLink& out, PacketHandle pkt, bool priority);
  void drop_queued(OutLink& out);
  void maybe_start_tx(OutLink& out);
  /// Takes over a routing message's payload reference and releases the
  /// packet; throws std::logic_error if it carries none.
  [[nodiscard]] UpdateHandle take_payload(PacketHandle pkt);
  /// Sends one copy of a routing message at high priority on `out`.
  void send_copy(OutLink& out, UpdateHandle payload, Packet::Kind kind,
                 net::NodeId src, double bits);
  void handle_update(PacketHandle pkt, net::LinkId via_link);
  /// Originates an update advertising `candidates`, one per out-link.
  /// out_[restarted]'s cost is a restart, not a movement from its last
  /// report (kNoRestart: every cost is a movement).
  void originate_update(std::span<const double> candidates,
                        std::size_t restarted);
  static constexpr std::size_t kNoRestart = static_cast<std::size_t>(-1);
  /// Restarts out_[idx]'s cost history at `cost` and originates an update
  /// advertising it beside the other links' last reports.
  void originate_restart(std::size_t idx, double cost);
  /// This node's latest update: its links' last reports, in out_ order.
  [[nodiscard]] const std::vector<double>& own_reports() const;
  void adopt(UpdateHandle update);
  void flood_copies(UpdateHandle update, net::LinkId arrived_on);

  // --- the 1969 distance-vector mode ---
  void dv_recompute();
  void dv_advertise();
  [[nodiscard]] double dv_link_metric(const OutLink& out) const;
  void handle_distance_vector(PacketHandle pkt, net::LinkId via_link);

  Network& net_;
  net::NodeId id_;
  /// held_[u]: the latest update accepted from origin u, held in the
  /// Network's UpdatePool; spf_ reads origin u's costs from its row.
  std::vector<UpdateHandle> held_;
  routing::IncrementalSpf spf_;
  std::vector<OutLink> out_;
  /// metrics_[i]: the metric of out_[i]'s link, read once per measurement
  /// period, so kept apart from the queue state the packet path reads.
  std::vector<metrics::LinkMetric> metrics_;
  /// next_hops_[dst]: the out-link forwarding takes toward dst. Bound once
  /// by start(): spf_'s first_hop is sized at construction and only
  /// written in place, and dv_next_ is sized by start() itself.
  std::span<const net::LinkId> next_hops_;
  /// Scratch for measurement_period's per-link candidate costs; persistent
  /// so closing a period allocates nothing at steady state.
  std::vector<double> candidate_scratch_;

  // Distance-vector state (used only under RoutingAlgorithm::kDistanceVector):
  // own estimates, chosen next hops, and each neighbor's last advertisement,
  // one row of node-count distances per out_ entry, row-major.
  std::vector<double> dv_dist_;
  std::vector<net::LinkId> dv_next_;
  std::vector<double> dv_neighbor_;

  // Multipath extension state: equal-cost next-hop sets, rebuilt lazily
  // after cost changes, plus a per-destination round-robin cursor.
  routing::MultipathSets mp_sets_;
  std::vector<std::uint32_t> mp_cursor_;
  bool mp_dirty_ = true;
};

}  // namespace arpanet::sim
