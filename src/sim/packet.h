// Packets.
//
// A data packet's header carries only the destination PSN — the whole point
// of consistent network-wide routing trees (paper section 4.1). Routing
// updates travel as packets too, so their bandwidth consumption (one of the
// D-SPF complaints, section 3.3 point 4) is charged against the links.
//
// Packet is a flat, trivially copyable record of at most 48 bytes: the pool
// (sim/packet_pool.h) reserves one slot per queue place and touches one per
// live packet, so every byte here is paid hundreds of times in resident
// memory and tens of thousands of times in address space. Payloads live
// elsewhere and ride as 4-byte handles: routing messages in sim::UpdatePool,
// host-message framing in sim::HostFlowLayer.

#pragma once

#include <cstdint>
#include <type_traits>

#include "src/net/topology.h"
#include "src/util/units.h"

namespace arpanet::sim {

/// Index of a pooled routing-message slot (sim/update_pool.h). Flooded
/// copies of one update, and the per-neighbor copies of one distance
/// vector, share the slot by refcount, so forwarding moves a 4-byte handle
/// instead of touching a shared_ptr control block.
using UpdateHandle = std::uint32_t;
inline constexpr UpdateHandle kInvalidUpdateHandle =
    static_cast<UpdateHandle>(-1);

struct Packet {
  /// A routing message's kind says how to read its slot's row: a
  /// link-state update's costs of its origin's out-links, or a 1969
  /// distance-vector advertisement's distances, indexed by destination
  /// (paper section 2.1; sent hop-by-hop to neighbors only, never flooded).
  enum class Kind : std::uint8_t { kData, kRoutingUpdate, kDistanceVector };

  /// Bits of `flags`.
  static constexpr std::uint8_t kHostMessage = 1;  ///< `message_tag` is set
  static constexpr std::uint8_t kRfnm = 2;  ///< a Request-For-Next-Message

  std::uint64_t id = 0;
  double bits = 0.0;
  util::SimTime created;
  /// When the packet joined its current PSN output queue (Psn::enqueue).
  /// A packet sits in at most one queue at a time: flooded copies are
  /// separate slots.
  util::SimTime enqueued;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;  ///< unused for routing messages
  /// The 4-byte payload. `message_tag` is live when `flags` has
  /// kHostMessage, `update` otherwise; only the live member is read.
  union {
    /// A refcounted sim::UpdatePool slot for kRoutingUpdate and
    /// kDistanceVector; kInvalidUpdateHandle on blank slots and datagrams.
    /// PacketPool::release drops the reference.
    UpdateHandle update = kInvalidUpdateHandle;
    /// A sim::HostFlowLayer data packet or RFNM: its message id and the
    /// packet's index within the message.
    std::uint32_t message_tag;
  };
  std::uint16_t hops = 0;
  Kind kind = Kind::kData;
  std::uint8_t flags = 0;
};

static_assert(std::is_trivially_copyable_v<Packet>,
              "pool slots and queue moves copy Packet bytewise");
static_assert(sizeof(Packet) <= 48,
              "the pool reserves one Packet per queue place; keep it small");

}  // namespace arpanet::sim
