// Typed simulation events.
//
// The simulator schedules a handful of event shapes, millions of times each:
// a Poisson source ticking, a transmitter finishing a packet, a packet
// arriving after the propagation delay, a PSN's 10-second measurement
// period, a distance-vector exchange, a host-flow message or RFNM timeout,
// and a compiled fault action (a line going down or up). SimEvent is one
// tagged record holding the kind, the sink that dispatches it and a few
// plain payload fields; every event is built by the named factory for its
// kind. The record is trivially copyable, so scheduling copies a few words
// into the event queue's slab, nothing allocates, and dispatch is one
// virtual call into the owning subsystem plus a switch on the kind.

#pragma once

#include <cstdint>
#include <type_traits>

#include "src/net/topology.h"
#include "src/util/units.h"

namespace arpanet::sim {

/// Index of a pooled Packet slot (sim/packet_pool.h).
using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kInvalidPacketHandle =
    static_cast<PacketHandle>(-1);

struct SimEvent;

/// Receiver of typed events. sim::Network and sim::HostFlowLayer implement
/// this; each SimEvent carries the sink that knows how to dispatch it, so
/// the Simulator stays ignorant of the subsystems above it.
class EventSink {
 public:
  virtual void handle_event(SimEvent& ev) = 0;

 protected:
  ~EventSink() = default;  // sinks are never owned through this interface
};

/// One scheduled event: a kind tag, its sink and the payload fields the
/// kind documents below. Fields a kind does not use keep their defaults.
struct SimEvent {
  enum class Kind : std::uint8_t {
    kSourceTick,         ///< index = Poisson source index
    kPropagationArrival, ///< link, packet   — packet reaches the peer PSN
    kTransmitComplete,   ///< index = node, link, packet, t1 = queue delay,
                         ///< t2 = transmission time, flag = is_update
    kMeasurementPeriod,  ///< index = node   — the 10-second metric timer
    kDvTick,             ///< index = node   — 1969 distance-vector exchange
    kHostFlowMessage,    ///< index = host-flow pair
    kHostFlowTimeout,    ///< index = pair, id = message, generation
    kFaultAction,        ///< index = compiled fault-action index
  };

  [[nodiscard]] Kind kind() const { return kind_; }

  // Payload accessors; meaningful only for the kinds documented on Kind.
  [[nodiscard]] std::uint32_t index() const { return index_; }
  [[nodiscard]] net::LinkId link() const { return link_; }
  [[nodiscard]] PacketHandle packet() const { return packet_; }
  [[nodiscard]] std::int32_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] util::SimTime t1() const { return t1_; }
  [[nodiscard]] util::SimTime t2() const { return t2_; }
  [[nodiscard]] bool flag() const { return flag_; }

  /// Executes the event by dispatching it through its sink.
  void fire() { sink_->handle_event(*this); }

  [[nodiscard]] static SimEvent source_tick(EventSink& sink,
                                            std::uint32_t source_index) {
    SimEvent ev{Kind::kSourceTick, sink};
    ev.index_ = source_index;
    return ev;
  }

  [[nodiscard]] static SimEvent propagation_arrival(EventSink& sink,
                                                    net::LinkId link,
                                                    PacketHandle packet) {
    SimEvent ev{Kind::kPropagationArrival, sink};
    ev.link_ = link;
    ev.packet_ = packet;
    return ev;
  }

  [[nodiscard]] static SimEvent transmit_complete(
      EventSink& sink, net::NodeId node, net::LinkId link, PacketHandle packet,
      util::SimTime queue_delay, util::SimTime tx_time, bool is_update) {
    SimEvent ev{Kind::kTransmitComplete, sink};
    ev.index_ = node;
    ev.link_ = link;
    ev.packet_ = packet;
    ev.t1_ = queue_delay;
    ev.t2_ = tx_time;
    ev.flag_ = is_update;
    return ev;
  }

  [[nodiscard]] static SimEvent measurement_period(EventSink& sink,
                                                   net::NodeId node) {
    SimEvent ev{Kind::kMeasurementPeriod, sink};
    ev.index_ = node;
    return ev;
  }

  [[nodiscard]] static SimEvent dv_tick(EventSink& sink, net::NodeId node) {
    SimEvent ev{Kind::kDvTick, sink};
    ev.index_ = node;
    return ev;
  }

  [[nodiscard]] static SimEvent host_flow_message(EventSink& sink,
                                                  std::uint32_t pair_index) {
    SimEvent ev{Kind::kHostFlowMessage, sink};
    ev.index_ = pair_index;
    return ev;
  }

  [[nodiscard]] static SimEvent host_flow_timeout(EventSink& sink,
                                                  std::uint32_t pair_index,
                                                  std::uint64_t message_id,
                                                  std::int32_t generation) {
    SimEvent ev{Kind::kHostFlowTimeout, sink};
    ev.index_ = pair_index;
    ev.id_ = message_id;
    ev.generation_ = generation;
    return ev;
  }

  [[nodiscard]] static SimEvent fault_action(EventSink& sink,
                                             std::uint32_t action_index) {
    SimEvent ev{Kind::kFaultAction, sink};
    ev.index_ = action_index;
    return ev;
  }

 private:
  SimEvent(Kind kind, EventSink& sink) noexcept : sink_{&sink}, kind_{kind} {}

  // The tag sits last, beside flag_, so the 50 bytes of fields pad to 56;
  // leading with it would pad the record to 64.
  EventSink* sink_;
  std::uint32_t index_ = 0;
  net::LinkId link_ = net::kInvalidLink;
  PacketHandle packet_ = kInvalidPacketHandle;
  std::int32_t generation_ = 0;
  std::uint64_t id_ = 0;
  util::SimTime t1_;
  util::SimTime t2_;
  bool flag_ = false;
  Kind kind_;
};

static_assert(std::is_trivially_copyable_v<SimEvent>,
              "SimEvent is copied into and out of the event-queue slab");
static_assert(sizeof(SimEvent) <= 64,
              "SimEvent grew past a cache line; every slab slot pays for it");

}  // namespace arpanet::sim
