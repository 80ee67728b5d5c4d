// Pooled packet storage.
//
// Routing a packet through the network used to move the full Packet struct
// into a per-hop closure at every enqueue, transmit and propagation step.
// The pool replaces that with a slab of Packet slots and a freelist of
// indices: the hot paths move a 4-byte PacketHandle while the struct itself
// stays put. Slots live in a deque so growth never relocates a packet a
// caller still references, and release() resets the slot so recycled
// packets carry no stale payload references. After warm-up the freelist
// covers the steady-state population and the pool allocates nothing.
//
// The pool is owned by one sim::Network and is strictly single-threaded,
// like the event queue it feeds (sweep parallelism is across Networks, never
// within one).

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/packet.h"
#include "src/sim/update_pool.h"
#include "src/util/check.h"

namespace arpanet::sim {

class PacketPool {
 public:
  /// Wires the update pool that backs Packet::update handles; release()
  /// drops the packet's reference through it. Must be set before any
  /// routing-message packet is released (sim::Network does so on
  /// construction).
  void attach_update_pool(UpdatePool* updates) { updates_ = updates; }

  // ARPALINT-HOTPATH-BEGIN: acquire/release run once per packet hop.
  /// Acquires a default-initialized slot, recycling a released one when
  /// available.
  [[nodiscard]] PacketHandle acquire() {
    ++acquired_;
    if (!free_.empty()) {
      ++recycled_;
      const PacketHandle h = free_.back();
      free_.pop_back();
      live_slot(h);
      return h;
    }
    const PacketHandle h = static_cast<PacketHandle>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; after warm-up every acquire recycles
    slots_.emplace_back();
    live_slot(h);
    return h;
  }

  /// Acquires a slot holding `pkt`.
  [[nodiscard]] PacketHandle acquire(const Packet& pkt) {
    const PacketHandle h = acquire();
    slots_[h] = pkt;
    return h;
  }

  [[nodiscard]] Packet& at(PacketHandle h) { return slots_[h]; }
  [[nodiscard]] const Packet& at(PacketHandle h) const { return slots_[h]; }

  /// Returns a slot to the freelist. The slot is reset to a blank Packet so
  /// shared payloads (routing updates, distance vectors) are released now,
  /// not at some future reuse; the reference is dropped through the
  /// attached UpdatePool.
  void release(PacketHandle h) {
    ARPA_DCHECK(h < slots_.size()) << "released handle " << h
                                   << " outside pool of " << slots_.size();
    const Packet& pkt = slots_[h];
    if ((pkt.flags & Packet::kHostMessage) == 0 &&
        pkt.update != kInvalidUpdateHandle) {
      ARPA_DCHECK(updates_ != nullptr)
          << "routing packet released with no attached UpdatePool";
      updates_->release(pkt.update);
    }
    slots_[h] = Packet{};
    // ARPALINT-ALLOW(hot-path-alloc): freelist retains its high-water capacity
    free_.push_back(h);
    --in_use_;
  }
  // ARPALINT-HOTPATH-END

  /// Pre-creates slots (parked on the freelist) until the slab holds `n`.
  /// The lazy slab sizes itself to the warm-up transient, but a longer
  /// measurement window can push the in-flight population past that
  /// high-water mark; sim::Network reserves the queue-bound working set at
  /// construction so the window never pays deque chunk growth.
  void reserve(std::size_t n) {
    if (n <= slots_.size()) return;
    free_.reserve(n);
    while (slots_.size() < n) {
      free_.push_back(static_cast<PacketHandle>(slots_.size()));
      slots_.emplace_back();
    }
  }

  /// Distinct slots ever created (the pool's footprint).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Total acquire() calls.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// acquire() calls served from the freelist rather than new storage.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }
  /// Slots currently held by callers.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// High-water mark of in_use().
  [[nodiscard]] std::size_t peak_in_use() const { return peak_in_use_; }

 private:
  void live_slot(PacketHandle) {
    if (++in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  }

  std::deque<Packet> slots_;
  std::vector<PacketHandle> free_;
  UpdatePool* updates_ = nullptr;
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace arpanet::sim
