// Pooled packet storage.
//
// Routing a packet through the network used to move the full Packet struct
// into a per-hop closure at every enqueue, transmit and propagation step.
// The pool replaces that with a slab of Packet slots and a freelist of
// indices: the hot paths move a 4-byte PacketHandle while the struct itself
// stays put, and release() resets the slot so recycled packets carry no
// stale payload references.
//
// The slab is paged: fixed pages of kPageSlots slots, allocated but not
// constructed. reserve() allocates pages and freelist capacity and touches
// neither, so a worst-case reservation costs address space, not resident
// memory; acquire() constructs the next slot in place only when the
// freelist is empty, so the slab's constructed footprint is the run's live
// high-water mark. Pages never move, so growth never relocates a packet a
// caller still references, and growth inside reserved pages allocates
// nothing. After warm-up the freelist covers the steady-state population
// and the pool allocates nothing.
//
// Each page also holds one FIFO link per slot, so a PacketFifo (the PSN
// output queues) threads its packets through the slab and owns no storage:
// a queue's footprint is 12 bytes at any depth, and enqueue() can never
// allocate.
//
// The pool is owned by one sim::Network and is strictly single-threaded,
// like the event queue it feeds (sweep parallelism is across Networks, never
// within one).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/packet.h"
#include "src/sim/update_pool.h"
#include "src/util/check.h"

namespace arpanet::sim {

/// A FIFO of pooled packets, linked through their slots' `next` handles in
/// the PacketPool that holds them: enqueue() and dequeue() are PacketPool
/// members. A packet is in at most one queue at a time and stays acquired
/// while queued.
struct PacketFifo {
  PacketHandle head = kInvalidPacketHandle;
  PacketHandle tail = kInvalidPacketHandle;
  std::uint32_t count = 0;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] std::size_t size() const { return count; }
};
static_assert(sizeof(PacketFifo) == 12,
              "an output queue is two handles and a count, whatever its depth");

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
    // ARPALINT-ALLOW(hot-path-alloc): a new page; after warm-up every acquire recycles
    if (constructed_ == capacity()) reserve(constructed_ + 1);
    const PacketHandle h = static_cast<PacketHandle>(constructed_++);
    ::new (static_cast<void*>(slot(h))) Packet{};
    live_slot(h);
    return h;
  }

  /// Acquires a slot holding `pkt`.
  [[nodiscard]] PacketHandle acquire(const Packet& pkt) {
    const PacketHandle h = acquire();
    at(h) = pkt;
    return h;
  }

  [[nodiscard]] Packet& at(PacketHandle h) { return *slot(h); }
  [[nodiscard]] const Packet& at(PacketHandle h) const { return *slot(h); }

  /// Returns a slot to the freelist. The slot is reset to a blank Packet so
  /// shared payloads (routing updates, distance vectors) are released now,
  /// not at some future reuse; the reference is dropped through the
  /// attached UpdatePool.
  void release(PacketHandle h) {
    ARPA_DCHECK(h < constructed_) << "released handle " << h
                                  << " outside pool of " << constructed_;
    Packet& pkt = at(h);
    if ((pkt.flags & Packet::kHostMessage) == 0 &&
        pkt.update != kInvalidUpdateHandle) {
      ARPA_DCHECK(updates_ != nullptr)
          << "routing packet released with no attached UpdatePool";
      updates_->release(pkt.update);
    }
    pkt = Packet{};
    // ARPALINT-ALLOW(hot-path-alloc): freelist capacity covers every page's slots
    free_.push_back(h);
    --in_use_;
  }

  /// Appends the acquired packet `h` to `q`.
  void enqueue(PacketFifo& q, PacketHandle h) {
    ARPA_DCHECK(h < constructed_) << "queued handle " << h
                                  << " outside pool of " << constructed_;
    next(h) = kInvalidPacketHandle;
    if (q.count == 0) {
      q.head = h;
    } else {
      next(q.tail) = h;
    }
    q.tail = h;
    ++q.count;
  }

  /// Removes and returns the oldest packet in `q`, which must not be empty.
  [[nodiscard]] PacketHandle dequeue(PacketFifo& q) {
    ARPA_DCHECK(q.count > 0) << "dequeue() on an empty PacketFifo";
    const PacketHandle h = q.head;
    q.head = next(h);
    if (--q.count == 0) q.tail = kInvalidPacketHandle;
    return h;
  }
  // ARPALINT-HOTPATH-END

  /// Allocates pages, and freelist capacity, for at least `n` slots,
  /// constructing none: up to `n` packets can then be live at once without
  /// allocating. The lazy slab sizes itself to the warm-up transient, but a
  /// longer measurement window can push the in-flight population past that
  /// high-water mark; sim::Network reserves the queue-bound working set at
  /// construction so the window never allocates a page.
  void reserve(std::size_t n) {
    const std::size_t pages = (n + kPageSlots - 1) >> kPageShift;
    if (pages <= pages_.size()) return;
    pages_.reserve(pages);
    while (pages_.size() < pages) {
      pages_.emplace_back(std::allocator<Page>{}.allocate(1));
    }
    // The freelist never holds more entries than there are slots, so
    // release() never grows it.
    free_.reserve(capacity());
  }

  /// Slots per page (a power of two).
  static constexpr unsigned kPageShift = 12;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageShift;

  /// Distinct slots ever constructed (the pool's resident footprint).
  [[nodiscard]] std::size_t slots() const { return constructed_; }
  /// Slots the allocated pages hold, constructed or not.
  [[nodiscard]] std::size_t capacity() const {
    return pages_.size() * kPageSlots;
  }
  /// Total acquire() calls.
  [[nodiscard]] std::uint64_t acquired() const { return acquired_; }
  /// acquire() calls served from the freelist rather than new storage.
  [[nodiscard]] std::uint64_t recycled() const { return recycled_; }
  /// Slots currently held by callers.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// High-water mark of in_use().
  [[nodiscard]] std::size_t peak_in_use() const { return peak_in_use_; }

 private:
  static constexpr std::size_t kPageMask = kPageSlots - 1;
  // Pages are freed without running destructors.
  static_assert(std::is_trivially_destructible_v<Packet>);

  /// kPageSlots packet slots and their FIFO links. A slot is constructed by
  /// acquire() and its link written by enqueue(), so an untouched page stays
  /// address space only.
  struct Page {
    Packet slots[kPageSlots];
    PacketHandle next[kPageSlots];
  };

  /// Returns a page's storage; its slots were never destroyed (trivially
  /// destructible) or never constructed.
  struct PageDeleter {
    void operator()(Page* page) const {
      std::allocator<Page>{}.deallocate(page, 1);
    }
  };

  [[nodiscard]] Packet* slot(PacketHandle h) const {
    return &pages_[h >> kPageShift]->slots[h & kPageMask];
  }
  [[nodiscard]] PacketHandle& next(PacketHandle h) {
    return pages_[h >> kPageShift]->next[h & kPageMask];
  }

  void live_slot(PacketHandle) {
    if (++in_use_ > peak_in_use_) peak_in_use_ = in_use_;
  }

  std::vector<std::unique_ptr<Page, PageDeleter>> pages_;
  /// Slots [0, constructed_) hold a Packet; the rest of the pages is raw.
  std::size_t constructed_ = 0;
  std::vector<PacketHandle> free_;
  UpdatePool* updates_ = nullptr;
  std::uint64_t acquired_ = 0;
  std::uint64_t recycled_ = 0;
  std::size_t in_use_ = 0;
  std::size_t peak_in_use_ = 0;
};

}  // namespace arpanet::sim
