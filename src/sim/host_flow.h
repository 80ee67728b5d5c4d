// RFNM host-level flow control — the ARPANET's end-to-end message layer.
//
// The subnet the paper's metric runs in did not carry raw datagrams: hosts
// submitted *messages* (up to ~8000 bits) which the source IMP split into
// packets, the destination IMP reassembled, and acknowledged with a
// Request-For-Next-Message (RFNM). A source could have only a small window
// of messages outstanding per destination, which throttled offered load
// under congestion. This layer reproduces that mechanism on top of
// sim::Network:
//
//   * Poisson message arrivals per (source, destination) pair, message
//     sizes shifted-exponential, split into packets of at most 1008 bits;
//   * at most `window` messages outstanding per pair (window 1 = the
//     original scheme, 8 = the later one); excess messages queue at the
//     source host;
//   * destination reassembles (counts packets per message id) and returns a
//     small RFNM packet; its arrival opens the window;
//   * a lost packet is recovered by retransmitting the whole message when
//     the RFNM fails to arrive within rfnm_timeout (as the source IMP did);
//     duplicate deliveries after completion just re-trigger the RFNM.
//
// Use it when an experiment needs closed-loop load (e.g. congestion
// studies); the figure benches use open-loop Poisson datagrams, matching
// the paper's per-packet analysis.

#pragma once

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/sim/network.h"
#include "src/stats/summary.h"

namespace arpanet::sim {

struct HostFlowConfig {
  double mean_message_bits = 4000.0;  ///< multi-packet messages (~4 packets)
  int window = 1;                     ///< outstanding messages per pair
  util::SimTime rfnm_timeout = util::SimTime::from_sec(15);
};

class HostFlowLayer : public EventSink {
 public:
  /// Attaches to `net` (installs the delivery hook; the layer must outlive
  /// the network run). Call add_traffic() for each pair, then run the
  /// network as usual.
  HostFlowLayer(Network& net, HostFlowConfig cfg);

  HostFlowLayer(const HostFlowLayer&) = delete;
  HostFlowLayer& operator=(const HostFlowLayer&) = delete;

  /// Poisson message traffic of `bps` average payload rate from src to dst.
  void add_pair(net::NodeId src, net::NodeId dst, double bps);

  /// Message traffic for every nonzero matrix entry.
  void add_traffic(const traffic::TrafficMatrix& matrix);

  // ---- results ----
  [[nodiscard]] long messages_offered() const { return messages_offered_; }
  [[nodiscard]] long messages_completed() const { return messages_completed_; }
  [[nodiscard]] long messages_abandoned() const { return messages_abandoned_; }
  [[nodiscard]] long retransmissions() const { return retransmissions_; }
  /// Host-to-host message latency: submission to RFNM receipt, ms.
  [[nodiscard]] const stats::Summary& message_delay_ms() const {
    return message_delay_ms_;
  }
  /// Completed payload bits per second over the run so far.
  [[nodiscard]] double goodput_bps() const;

  /// Typed-event dispatch: message arrivals and RFNM timeouts (sim/event.h)
  /// — the layer's recurring events schedule without allocation.
  void handle_event(SimEvent& ev) override;

 private:
  struct Message {
    std::uint64_t id = 0;
    double bits = 0.0;
    int packet_count = 0;
    util::SimTime submitted;
    int retransmits = 0;
  };

  struct Pair {
    net::NodeId src;
    net::NodeId dst;
    traffic::PoissonProcess arrivals;
    util::Rng size_rng;
    std::deque<Message> backlog;
    std::unordered_map<std::uint64_t, Message> outstanding;
  };

  void schedule_message(std::size_t pair_index);
  void try_send(Pair& pair);
  void transmit_message(Pair& pair, const Message& msg);
  void arm_timeout(std::size_t pair_index, std::uint64_t message_id,
                   int retransmit_generation);
  void on_timeout(std::size_t pair_index, std::uint64_t message_id,
                  int retransmit_generation);
  void on_delivered(const Packet& pkt);

  Network& net_;
  HostFlowConfig cfg_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  /// (src,dst) -> pair index, for hook dispatch.
  std::unordered_map<std::uint64_t, std::size_t> pair_index_;
  /// Packets per message, indexed by message id - 1: the framing side
  /// table. Packets carry only their message id and index
  /// (Packet::message_tag).
  std::vector<std::uint8_t> packet_counts_;
  /// Destination-side reassembly: message id -> bit mask of packets seen.
  std::unordered_map<std::uint64_t, std::uint32_t> reassembly_;
  std::unordered_set<std::uint64_t> completed_at_dst_;
  std::uint64_t next_message_id_ = 0;
  long messages_offered_ = 0;
  long messages_completed_ = 0;
  long messages_abandoned_ = 0;
  long retransmissions_ = 0;
  stats::Summary message_delay_ms_;
  double completed_bits_ = 0.0;
  util::SimTime start_;
};

}  // namespace arpanet::sim
