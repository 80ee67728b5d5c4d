// Pooled routing-message storage.
//
// Flooding one link-state update used to allocate a shared_ptr control
// block plus a reports vector per origination, and every measurement period
// with a significant change paid that cost inside the measurement window —
// the one steady-state allocation left after the packet slab and the
// calendar queue went allocation-free. The pool replaces the shared_ptr
// with a slab of refcounted slots: flooded packet copies share one slot
// through a 4-byte UpdateHandle, and when the last copy is consumed the
// slot returns to a freelist with its row's capacity intact, so a
// recycled origination writes into existing storage. A slot holds one
// payload, a RoutingUpdate: an origin and a row of doubles. A link-state
// update's row is its origin's out-link costs; the 1969 baseline's
// distance-vector advertisement, which one exchange shares between its
// per-neighbor copies, is the sender's distance to every node in the same
// row (Packet::Kind says which reading applies).
//
// A slot has two kinds of reference. Flight references belong to an
// origination in progress and to the flooded packet copies; a slot with
// any is in flight. Holds belong to PSNs: each PSN holds, per origin, the
// latest update it accepted, whose cost row is its view of that origin's
// links (sim::Psn). A slot parks when both counts reach zero, so a
// quiesced network keeps exactly the versions its PSNs hold.
//
// Slots live in a deque so growth never relocates an update a flooded
// packet or a PSN still references. Like sim::PacketPool the pool is owned
// by one sim::Network and is strictly single-threaded (sweep parallelism is
// across Networks, never within one), so the refcounts are plain integers.
// Under AddressSanitizer a parked slot's row is poisoned, so reading a
// version nobody holds any more, or an advertisement whose copies were all
// consumed, fails loudly instead of reading a recycled row.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/routing/flooding.h"
#include "src/sim/packet.h"
#include "src/util/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define ARPANET_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ARPANET_ASAN 1
#endif
#endif
#if defined(ARPANET_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace arpanet::sim {

class UpdatePool {
 public:
  // ARPALINT-HOTPATH-BEGIN
  /// Acquires a slot with one flight reference and no holds. The slot's
  /// row is empty but keeps whatever capacity its previous occupants grew.
  [[nodiscard]] UpdateHandle acquire() {
    ++acquired_;
    if (!free_.empty()) {
      ++recycled_;
      const UpdateHandle h = free_.back();
      free_.pop_back();
      unpark(h);
      return h;
    }
    const UpdateHandle h = static_cast<UpdateHandle>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    slots_.emplace_back();
    // The freelist never holds more entries than there are slots, so keeping
    // its capacity at least the slab's size keeps a park from growing it
    // later, mid-window. Doubling keeps the growths logarithmic in the peak.
    if (free_.capacity() < slots_.size()) {
      // ARPALINT-ALLOW(hot-path-alloc): grows with the slab, never when parking
      free_.reserve(2 * slots_.size());
    }
    reserve_row(slots_[h]);
    unpark(h);
    return h;
  }

  [[nodiscard]] routing::RoutingUpdate& at(UpdateHandle h) {
    return slots_[h].update;
  }
  [[nodiscard]] const routing::RoutingUpdate& at(UpdateHandle h) const {
    return slots_[h].update;
  }

  /// Another flooded copy now shares the slot.
  void add_ref(UpdateHandle h) {
    ARPA_DCHECK(slots_[h].refs > 0) << "add_ref on a slot not in flight";
    ++slots_[h].refs;
  }

  /// Drops one flight reference. The last one ends the slot's flight, and
  /// parks it unless a PSN holds it.
  void release(UpdateHandle h) {
    ARPA_DCHECK(h < slots_.size() && slots_[h].refs > 0)
        << "released update handle " << h << " with no flight reference";
    if (--slots_[h].refs == 0) {
      --in_flight_;
      if (slots_[h].holds == 0) park(h);
    }
  }

  /// A PSN adopts the slot as its latest update from the slot's origin.
  void hold(UpdateHandle h) {
    ARPA_DCHECK(h < slots_.size() && (slots_[h].refs > 0 || slots_[h].holds > 0))
        << "hold on parked update slot " << h;
    if (slots_[h].holds++ == 0) ++held_;
  }

  /// A PSN replaced the slot with a newer update from the same origin; the
  /// last hold parks it unless it is still in flight.
  void drop_hold(UpdateHandle h) {
    ARPA_DCHECK(h < slots_.size() && slots_[h].holds > 0)
        << "dropped a hold on update slot " << h << " that nobody holds";
    if (--slots_[h].holds == 0) {
      --held_;
      if (slots_[h].refs == 0) park(h);
    }
  }
  // ARPALINT-HOTPATH-END

  /// Sets the row capacity every slot is created with. Without a floor a
  /// slot first used by a low-degree origin and later recycled by a
  /// high-degree one regrows its row mid-measurement; sim::Network sets the
  /// topology's maximum out-degree so a slot fits any origin from birth, or
  /// at least the node count under the 1969 mode, whose advertisements
  /// carry one distance per node.
  void set_report_capacity(std::size_t n) {
    report_capacity_ = n;
    for (Slot& s : slots_) reserve_row(s);
  }

  /// Grows the slab to at least `n` slots, parking the new ones on the
  /// freelist, so up to `n` updates can be live at once without allocating.
  void reserve(std::size_t n) {
    free_.reserve(n);
    while (slots_.size() < n) {
      free_.push_back(static_cast<UpdateHandle>(slots_.size()));
      slots_.emplace_back();
      reserve_row(slots_.back());
    }
  }

  /// Distinct slots ever created (the pool's footprint).
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Slots not parked: in flight, held, or both.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// Slots with a flight reference: originations in progress and updates
  /// with flooded copies not yet consumed.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  /// High-water mark of in_flight().
  [[nodiscard]] std::size_t peak_in_flight() const { return peak_in_flight_; }
  /// Slots some PSN holds.
  [[nodiscard]] std::size_t held() const { return held_; }
  /// Total acquire() calls.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// acquire() calls served from the freelist rather than new storage.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }

 private:
  struct Slot {
    routing::RoutingUpdate update;
    std::uint32_t refs = 0;
    std::uint32_t holds = 0;
  };

  /// Applies the capacity floor; acquire() and reserve() call it once per
  /// new slot.
  void reserve_row(Slot& s) const {
    s.update.costs.reserve(report_capacity_);
    if (s.refs == 0 && s.holds == 0) poison_row(s, true);
  }

  /// Takes a slot off the freelist (or fresh from the slab) into flight.
  void unpark(UpdateHandle h) {
    Slot& s = slots_[h];
    poison_row(s, false);
    s.refs = 1;
    ++in_use_;
    ++in_flight_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  }

  /// Parks a slot with no reference left, keeping its row's storage
  /// (clear(), not shrink).
  void park(UpdateHandle h) {
    Slot& s = slots_[h];
    s.update.origin = net::kInvalidNode;
    s.update.seq = 0;
    s.update.costs.clear();
    poison_row(s, true);
    // ARPALINT-ALLOW(hot-path-alloc): acquire() reserved a place per slot
    free_.push_back(h);
    --in_use_;
  }

  static void poison_row(const Slot& s, bool poison) {
#if defined(ARPANET_ASAN)
    const std::size_t bytes = s.update.costs.capacity() * sizeof(double);
    if (bytes == 0) return;
    if (poison) {
      ASAN_POISON_MEMORY_REGION(s.update.costs.data(), bytes);
    } else {
      ASAN_UNPOISON_MEMORY_REGION(s.update.costs.data(), bytes);
    }
#else
    (void)s;
    (void)poison;
#endif
  }

  std::deque<Slot> slots_;
  std::vector<UpdateHandle> free_;
  std::size_t report_capacity_ = 0;
  std::size_t in_use_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t peak_in_flight_ = 0;
  std::size_t held_ = 0;
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace arpanet::sim
