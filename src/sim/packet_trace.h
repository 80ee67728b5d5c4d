// Packet-level event tracing.
//
// A bounded in-memory recorder for per-packet events — the tool you reach
// for when a simulation result looks wrong ("which links did packet 4711
// actually cross, and where did it sit in queue?"). Disabled by default;
// when enabled on a Network it records hop/drop/delivery events into a ring
// buffer with optional packet-id filtering, costing one branch when off.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/net/topology.h"
#include "src/util/units.h"

namespace arpanet::sim {

enum class TraceEventKind : std::uint8_t {
  kOriginated,
  kEnqueued,
  kTransmitted,   ///< finished serialization onto a link
  kDelivered,
  kDroppedQueue,
  kDroppedLoop,
  kDroppedUnreachable,
};

[[nodiscard]] const char* to_string(TraceEventKind kind);

struct TraceEvent {
  util::SimTime at;
  TraceEventKind kind = TraceEventKind::kOriginated;
  std::uint64_t packet_id = 0;
  net::NodeId node = net::kInvalidNode;    ///< where it happened
  net::LinkId link = net::kInvalidLink;    ///< link involved (if any)
};

class PacketTracer {
 public:
  /// Keeps at most `capacity` most-recent events (ring buffer).
  explicit PacketTracer(std::size_t capacity = 65536);

  /// Restrict recording to one packet id (common when re-running a seed to
  /// chase a specific packet).
  void filter_packet(std::uint64_t id) { filter_ = id; }

  void record(util::SimTime at, TraceEventKind kind, std::uint64_t packet_id,
              net::NodeId node, net::LinkId link = net::kInvalidLink);

  /// Events in chronological order (oldest survivor first).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Just one packet's events, chronological.
  [[nodiscard]] std::vector<TraceEvent> events_for(std::uint64_t packet_id) const;

  [[nodiscard]] std::uint64_t recorded_total() const { return recorded_; }
  void clear();

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t recorded_ = 0;
  std::optional<std::uint64_t> filter_;
};

}  // namespace arpanet::sim
