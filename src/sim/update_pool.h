// Pooled routing-message storage.
//
// Flooding one link-state update used to allocate a shared_ptr control
// block plus a reports vector per origination, and every measurement period
// with a significant change paid that cost inside the measurement window —
// the one steady-state allocation left after the packet slab and the
// calendar queue went allocation-free. The pool replaces the shared_ptr
// with a slab of refcounted slots: flooded packet copies share one slot
// through a 4-byte UpdateHandle, and when the last copy is consumed the
// slot returns to a freelist with its vectors' capacity intact, so a
// recycled origination writes into existing storage. A slot holds either
// payload a routing packet carries: a RoutingUpdate (SPF modes) or the
// 1969 baseline's DistanceVector, which one advertisement shares between
// its per-neighbor copies.
//
// Slots live in a deque so growth never relocates an update a flooded
// packet still references. Like sim::PacketPool the pool is owned by one
// sim::Network and is strictly single-threaded (sweep parallelism is
// across Networks, never within one), so the refcounts are plain integers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/routing/flooding.h"
#include "src/sim/packet.h"
#include "src/util/check.h"

namespace arpanet::sim {

class UpdatePool {
 public:
  // ARPALINT-HOTPATH-BEGIN
  /// Acquires a slot with refcount 1. The slot's vectors are empty but keep
  /// whatever capacity their previous occupants grew.
  [[nodiscard]] UpdateHandle acquire() {
    ++acquired_;
    if (!free_.empty()) {
      ++recycled_;
      const UpdateHandle h = free_.back();
      free_.pop_back();
      slots_[h].refs = 1;
      ++in_use_;
      return h;
    }
    const UpdateHandle h = static_cast<UpdateHandle>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    slots_.emplace_back();
    // The freelist never holds more entries than there are slots, so keeping
    // its capacity at least the slab's size keeps release() from growing it
    // later, mid-window. Doubling keeps the growths logarithmic in the peak.
    if (free_.capacity() < slots_.size()) {
      // ARPALINT-ALLOW(hot-path-alloc): grows with the slab, never in release()
      free_.reserve(2 * slots_.size());
    }
    reserve_payloads(slots_[h]);
    slots_[h].refs = 1;
    ++in_use_;
    return h;
  }

  [[nodiscard]] routing::RoutingUpdate& at(UpdateHandle h) {
    return slots_[h].update;
  }
  [[nodiscard]] const routing::RoutingUpdate& at(UpdateHandle h) const {
    return slots_[h].update;
  }
  [[nodiscard]] DistanceVector& dv(UpdateHandle h) { return slots_[h].dv; }

  /// Another flooded copy now shares the slot.
  void add_ref(UpdateHandle h) {
    ARPA_DCHECK(slots_[h].refs > 0) << "add_ref on a parked update slot";
    ++slots_[h].refs;
  }

  /// Drops one reference; the last drop parks the slot on the freelist with
  /// its vectors' storage retained (clear(), not shrink).
  void release(UpdateHandle h) {
    ARPA_DCHECK(h < slots_.size() && slots_[h].refs > 0)
        << "released update handle " << h << " with no live reference";
    if (--slots_[h].refs == 0) {
      slots_[h].update.origin = net::kInvalidNode;
      slots_[h].update.seq = 0;
      slots_[h].update.reports.clear();
      slots_[h].dv.origin = net::kInvalidNode;
      slots_[h].dv.dist.clear();
      // ARPALINT-ALLOW(hot-path-alloc): acquire() reserved a place per slot
      free_.push_back(h);
      --in_use_;
    }
  }
  // ARPALINT-HOTPATH-END

  /// Sets the reports capacity every slot is created with. Without a floor
  /// a slot first used by a low-degree origin and later recycled by a
  /// high-degree one regrows its vector mid-measurement; sim::Network sets
  /// the topology's maximum out-degree so a slot fits any origin from birth.
  void set_report_capacity(std::size_t n) {
    report_capacity_ = n;
    for (Slot& s : slots_) reserve_payloads(s);
  }

  /// Sets the distance-vector capacity every slot is created with; the 1969
  /// mode sets the node count, so an advertisement copies into existing
  /// storage even on a slot created for the measurement window's headroom.
  void set_dv_capacity(std::size_t n) {
    dv_capacity_ = n;
    for (Slot& s : slots_) reserve_payloads(s);
  }

  /// Grows the slab to at least `n` slots, parking the new ones on the
  /// freelist, so up to `n` updates can be live at once without allocating.
  void reserve(std::size_t n) {
    free_.reserve(n);
    while (slots_.size() < n) {
      free_.push_back(static_cast<UpdateHandle>(slots_.size()));
      slots_.emplace_back();
      reserve_payloads(slots_.back());
    }
  }

  /// Distinct slots ever created (the pool's footprint).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Slots currently referenced by at least one packet or originator.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// Total acquire() calls.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// acquire() calls served from the freelist rather than new storage.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }

 private:
  struct Slot {
    routing::RoutingUpdate update;
    DistanceVector dv;
    std::uint32_t refs = 0;
  };

  /// Applies the capacity floors; acquire() calls it once per new slot.
  void reserve_payloads(Slot& s) const {
    s.update.reports.reserve(report_capacity_);
    s.dv.dist.reserve(dv_capacity_);
  }

  std::deque<Slot> slots_;
  std::vector<UpdateHandle> free_;
  std::size_t report_capacity_ = 0;
  std::size_t dv_capacity_ = 0;
  std::size_t in_use_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace arpanet::sim
