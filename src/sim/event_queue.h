// Discrete-event queue.
//
// A calendar queue (Brown 1988) with a second, coarser rung: pending events
// hang off an array of power-of-two-width "day" buckets covering the rest of
// the current "year" (nbuckets days), an array of year buckets holding the
// next kFarYears years unsorted, and a sorted overflow list for anything
// beyond that. Scheduling links the event into its day's or year's bucket in
// O(1); dequeueing drains one day at a time, sorting that day's handful of
// entries by (time, sequence), and spills a year into the day buckets when
// the window reaches it — amortized O(1) per event, where the old binary
// heap paid an O(log n) sift on every operation at depths in the thousands.
//
// The sequence number makes ordering of simultaneous events deterministic
// (FIFO in scheduling order); the drain sort recovers the exact (time, seq)
// total order the heap produced, so whole-network runs stay bit-reproducible
// for a given seed — the golden bench report does not move.
//
// Events live in a recycled slab (contiguous vector + freelist, like
// sim/packet_pool.h); day and year buckets are intrusive singly-linked
// lists threaded through per-slot metadata, so a resize relinks slot
// indices without moving a single SimEvent. The day width is derived from
// the queue front — the spread of the nearest few dozen pending events —
// not from the whole horizon, so a large idle far-future population (one
// pending source tick per traffic pair, seconds to hours out) cannot widen
// the days the simulation actually drains. The queue watches what drained
// days hold and re-derives the width when days grow crowded or the scan
// walks too many empty buckets. Scheduling a recurring typed event performs
// no allocation once the slab and bucket array have reached their
// high-water capacity.
//
// Contract: schedule() times must be >= the last popped time (the Simulator
// enforces this — its clock never runs backwards). The window's base day
// advances monotonically as days drain; an event scheduled into the current
// day merges into the day's sorted drain list, still in exact order.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/event.h"
#include "src/util/units.h"

namespace arpanet::sim {

class EventQueue {
 public:
  EventQueue();

  void schedule(util::SimTime at, SimEvent ev);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// High-water mark of size() over the queue's lifetime (telemetry).
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

  /// Pre-sizes every index structure (slab, freelist, bucket array, drain /
  /// overflow / relink staging) for a pending population of up to `events`,
  /// so growth past a power-of-two geometry boundary inside a
  /// zero-allocation window needs no heap. sim::run_scenario calls this
  /// with headroom over the warm-up peak before arming its AllocGuard.
  void reserve(std::size_t events);

  /// Earliest pending time. Precondition: !empty(). Not const: it readies
  /// the sorted drain list for the front day, which the following pop()
  /// reuses.
  [[nodiscard]] util::SimTime next_time();

  /// Pops and returns a copy of the earliest event. Precondition: !empty().
  [[nodiscard]] SimEvent pop(util::SimTime& at);

  // ---- telemetry (obs counters) ----
  /// Distinct slab slots ever allocated (high-water pending population).
  [[nodiscard]] std::size_t slab_slots() const { return slots_.size(); }
  /// Bucket-array rebuilds (width/size re-derivations) over the lifetime.
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }
  /// Events that landed beyond the far rung on schedule().
  [[nodiscard]] std::uint64_t overflow_scheduled() const {
    return overflow_scheduled_;
  }

  // ---- queue health (accessors only; not exported as obs counters) ----
  /// Non-empty days drained over the lifetime. Pops per drained day is the
  /// geometry's health figure: a handful when the day width fits the
  /// queue front, hundreds when it does not.
  [[nodiscard]] std::uint64_t days_drained() const { return days_drained_; }
  /// Schedules that landed in the day being drained and were merged into
  /// its sorted drain list (a binary insert, O(day size)).
  [[nodiscard]] std::uint64_t drain_merges() const { return drain_merges_; }
  /// Times the window moved on to a later year and spilled that year's far
  /// bucket into the day buckets.
  [[nodiscard]] std::uint64_t years_advanced() const {
    return years_advanced_;
  }

 private:
  /// A (time, seq) key plus the slab slot it refers to; the element of the
  /// sorted drain and overflow lists.
  struct Entry {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Per-slot schedule key and intrusive bucket-list link.
  struct SlotMeta {
    std::int64_t at_us = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = 0;
  };

  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);
  static constexpr int kMinDayBits = 4;
  static constexpr std::size_t kMinBuckets = std::size_t{1} << kMinDayBits;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Initial day width: 2^10 us ≈ 1 ms, the order of a trunk's transmission
  /// and propagation delays. Resizes re-derive it from the queue front.
  static constexpr int kDefaultShift = 10;
  static constexpr int kMaxShift = 40;  ///< day width cap (~13 days of sim time)
  /// The far rung: this many year buckets (a year is nbuckets days) past
  /// the current year.
  static constexpr int kFarYearBits = 10;
  static constexpr std::size_t kFarYears = std::size_t{1} << kFarYearBits;
  /// The width rule samples the spread of this many front events and
  /// sizes days to hold kTargetDayEvents to twice that many of them.
  static constexpr std::size_t kFrontSample = 32;
  static constexpr std::size_t kTargetDayEvents = 2;
  /// A resize widens days, if need be, until the far rung reaches all but
  /// this many pending events; the overflow list starts near-empty.
  static constexpr std::size_t kOverflowSlack = 64;
  /// Overflow depth that, once it is also an eighth of the population,
  /// re-derives the geometry (a safety valve: sorted inserts are O(depth)).
  static constexpr std::size_t kOverflowTrigger = 64;
  /// Occupancy check: every kCheckDays drained days, or sooner once they
  /// hold kCheckDays * kMaxDayEvents pops (and in either case once the work
  /// since the last check would pay for an O(size) rebuild), days holding
  /// more than kMaxDayEvents pops on average are too wide; fewer than
  /// kMinDayEvents pops with more than kMaxDayScans empty buckets skipped
  /// per day are too narrow. The 4x gap between the two event bounds keeps
  /// a one-step correction from flipping into the opposite trigger.
  static constexpr std::uint64_t kCheckDays = 64;
  static constexpr std::uint64_t kMaxDayEvents = 8;
  static constexpr std::uint64_t kMinDayEvents = 2;
  static constexpr std::uint64_t kMaxDayScans = 8;

  /// Strict descending (time, seq) order, so the back() of a sorted vector
  /// is the earliest entry and pops are pop_back(). A closure rather than a
  /// function, so std::sort and std::lower_bound inline the comparison
  /// instead of calling through a pointer.
  static constexpr auto later = [](const Entry& a, const Entry& b) {
    return a.at_us != b.at_us ? a.at_us > b.at_us : a.seq > b.seq;
  };

  [[nodiscard]] std::int64_t day_of(std::int64_t at_us) const {
    return at_us >> shift_;  // arithmetic shift, well-defined since C++20
  }
  [[nodiscard]] std::int64_t year_of_day(std::int64_t day) const {
    return day >> day_bits_;
  }
  [[nodiscard]] Entry entry_of(std::uint32_t slot) const {
    return Entry{meta_[slot].at_us, meta_[slot].seq, slot};
  }

  /// Links `slot` into its day bucket (current year) or year bucket (far
  /// rung). Returns false, linking nothing, when it lies beyond the far
  /// rung. Pre: the slot's day is not the active drain day.
  bool link(std::uint32_t slot);

  /// Moves overflow entries the far rung now reaches into their buckets
  /// (the overflow list is sorted, so this peels the back).
  void migrate_overflow();

  /// Advances the window to the next year holding events and spills that
  /// year's bucket into the day buckets. Pre: no day bucket is occupied.
  void advance_year();

  /// Ensures drain_ holds the front day's entries, sorted. Pre: size_ > 0.
  void prepare();

  /// Checks the occupancy of the days drained since the last check and
  /// resizes if they were too crowded or too sparse.
  void check_occupancy();

  /// Day-array size for a population of n: bit_ceil(n), clamped.
  [[nodiscard]] static std::size_t buckets_for(std::size_t n);

  /// Rebuilds the bucket arrays around `nb` day buckets: derives the day
  /// width from the queue front (clamped to [min_shift, max_shift]) and
  /// relinks every slot (indices only — no SimEvent moves). Population
  /// triggers pass buckets_for(size); occupancy triggers keep the count.
  void resize(std::size_t nb, int min_shift = 0, int max_shift = kMaxShift);

  // Slab: the events themselves plus per-slot metadata and a freelist.
  std::vector<SimEvent> slots_;
  std::vector<SlotMeta> meta_;
  std::vector<std::uint32_t> free_;

  // Day rung: head slot index per bucket. Day d maps to d & mask_; the
  // window holds the days [base_day_, end of base_day_'s year), so no bucket
  // ever mixes days.
  std::vector<std::uint32_t> buckets_;
  std::size_t mask_ = kMinBuckets - 1;
  int day_bits_ = kMinDayBits;  ///< log2(buckets_.size()): days per year
  int shift_ = kDefaultShift;
  std::int64_t base_day_ = 0;
  std::size_t bucketed_ = 0;  ///< events currently linked into buckets_

  // Far rung: year y in (current year, current year + kFarYears] maps to
  // far_[y & (kFarYears - 1)]; the current year's slot is always empty.
  std::array<std::uint32_t, kFarYears> far_;
  std::size_t far_count_ = 0;  ///< events currently linked into far_

  // The front day, sorted descending; back() pops first. While a drain is
  // active, new events for base_day_ merge here instead of the bucket.
  std::vector<Entry> drain_;
  bool drain_active_ = false;

  /// Events beyond the far rung, sorted descending; back() migrates first.
  std::vector<Entry> overflow_;

  std::vector<std::uint32_t> scratch_;  ///< resize relink staging

  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t resizes_ = 0;
  std::uint64_t overflow_scheduled_ = 0;
  std::uint64_t days_drained_ = 0;
  std::uint64_t drain_merges_ = 0;
  std::uint64_t years_advanced_ = 0;

  // Occupancy since the last check (or resize).
  std::uint64_t check_days_ = 0;
  std::uint64_t check_events_ = 0;  ///< drained entries plus drain merges
  std::uint64_t check_scans_ = 0;   ///< empty day buckets skipped
};

}  // namespace arpanet::sim
