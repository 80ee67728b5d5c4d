#include "src/sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/util/check.h"

namespace arpanet::sim {

EventQueue::EventQueue() : buckets_(kMinBuckets, kNil) { far_.fill(kNil); }

std::size_t EventQueue::buckets_for(std::size_t n) {
  return std::bit_ceil(std::clamp(n, kMinBuckets, kMaxBuckets));
}

void EventQueue::reserve(std::size_t events) {
  // Capacity only: the live geometry (bucket count, day width) is untouched,
  // so ordering semantics and resize() accounting stay exactly as they were.
  // The far rung is a fixed array and needs no reservation.
  buckets_.reserve(buckets_for(events));
  scratch_.reserve(events);
  drain_.reserve(events);
  overflow_.reserve(events);
  slots_.reserve(events);
  meta_.reserve(events);
  free_.reserve(events);
}

// ARPALINT-HOTPATH-BEGIN
void EventQueue::schedule(util::SimTime at, SimEvent ev) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = ev;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    slots_.push_back(ev);
    // ARPALINT-ALLOW(hot-path-alloc): slab growth; freelist serves steady state
    meta_.emplace_back();
  }
  meta_[slot].at_us = at.us();
  meta_[slot].seq = next_seq_++;

  if (size_ == 0) {
    // Empty queue: re-anchor the window so the first event's day is the
    // base — keeps the bucket scan from walking dead days after idle gaps.
    base_day_ = day_of(at.us());
    drain_active_ = false;
  }
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;

  if (drain_active_ && day_of(at.us()) <= base_day_) {
    // The day being drained keeps its entries sorted; merge in place. (An
    // earlier day — still >= the last pop, per the class contract — merges
    // here too: it sorts ahead of everything later in the window.)
    const Entry e = entry_of(slot);
    // ARPALINT-ALLOW(hot-path-alloc): drain vector retains capacity across days
    drain_.insert(std::lower_bound(drain_.begin(), drain_.end(), e, later),
                  e);
    ++drain_merges_;
    ++check_events_;
  } else if (!link(slot)) {
    const Entry e = entry_of(slot);
    // ARPALINT-ALLOW(hot-path-alloc): overflow vector retains capacity
    overflow_.insert(
        std::lower_bound(overflow_.begin(), overflow_.end(), e, later), e);
    ++overflow_scheduled_;
  }

  // The population outgrew the day array (mean bucket depth above 2), or
  // the overflow list grew deep enough that its sorted inserts cost more
  // than a rebuild, which widens the far rung to reach it.
  if ((size_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets) ||
      (overflow_.size() > kOverflowTrigger &&
       8 * overflow_.size() > size_)) {
    // ARPALINT-ALLOW(hot-path-alloc): grows only past reserve()'s capacity
    resize(buckets_for(size_));
  }
}

bool EventQueue::link(std::uint32_t slot) {
  // An event can be scheduled for a day the window base has already passed
  // (its time is still >= the last pop, per the class contract); clamping
  // to the base day files it where the next scan looks, and the drain sort
  // restores the exact (time, seq) order.
  const std::int64_t day = std::max(day_of(meta_[slot].at_us), base_day_);
  const std::int64_t years_out = year_of_day(day) - year_of_day(base_day_);
  if (years_out == 0) {
    std::uint32_t& head = buckets_[static_cast<std::size_t>(day) & mask_];
    meta_[slot].next = head;
    head = slot;
    ++bucketed_;
    return true;
  }
  if (years_out <= static_cast<std::int64_t>(kFarYears)) {
    std::uint32_t& head =
        far_[static_cast<std::size_t>(year_of_day(day)) & (kFarYears - 1)];
    meta_[slot].next = head;
    head = slot;
    ++far_count_;
    return true;
  }
  return false;
}

void EventQueue::migrate_overflow() {
  const std::int64_t limit =
      year_of_day(base_day_) + static_cast<std::int64_t>(kFarYears);
  while (!overflow_.empty() &&
         year_of_day(day_of(overflow_.back().at_us)) <= limit) {
    const std::uint32_t slot = overflow_.back().slot;
    overflow_.pop_back();
    link(slot);
  }
}

void EventQueue::advance_year() {
  ARPA_DCHECK(bucketed_ == 0 && size_ > 0);
  std::int64_t year = year_of_day(base_day_) + 1;
  std::int64_t first_day = std::numeric_limits<std::int64_t>::max();
  if (far_count_ > 0) {
    while (far_[static_cast<std::size_t>(year) & (kFarYears - 1)] == kNil) {
      ++year;
    }
  } else {
    // Everything pending sits beyond the far rung; jump straight to the
    // earliest overflow year rather than walking empty years.
    ARPA_DCHECK(!overflow_.empty());
    first_day = day_of(overflow_.back().at_us);
    year = year_of_day(first_day);
  }
  base_day_ = year << day_bits_;
  ++years_advanced_;
  std::uint32_t& head = far_[static_cast<std::size_t>(year) & (kFarYears - 1)];
  std::uint32_t s = head;
  head = kNil;
  while (s != kNil) {
    const std::uint32_t next = meta_[s].next;
    const std::int64_t day = day_of(meta_[s].at_us);
    first_day = std::min(first_day, day);
    std::uint32_t& bucket = buckets_[static_cast<std::size_t>(day) & mask_];
    meta_[s].next = bucket;
    bucket = s;
    ++bucketed_;
    --far_count_;
    s = next;
  }
  // The far rung now reaches one year further.
  migrate_overflow();
  // Start the scan at the year's first occupied day, not its first day.
  base_day_ = first_day;
}

void EventQueue::prepare() {
  if (!drain_.empty()) return;
  if (drain_active_) {
    drain_active_ = false;
    // The drained day is spent (its bucket stayed empty while it drained,
    // since its schedules merged into drain_). An occupied bucket lies
    // later in this year, so stepping past it cannot leave the year.
    if (bucketed_ > 0) ++base_day_;
  }
  // A rebuild costs O(size): the check waits until the work seen since the
  // last one would pay for it, so a misjudged geometry costs at most a
  // constant factor and a good one is never rebuilt.
  if ((check_days_ >= kCheckDays ||
       check_events_ >= kCheckDays * kMaxDayEvents) &&
      check_events_ + check_scans_ >= size_ / 2) {
    check_occupancy();
  }
  if (bucketed_ == 0) advance_year();
  ARPA_DCHECK(bucketed_ > 0);
  std::int64_t d = base_day_;
  while (buckets_[static_cast<std::size_t>(d) & mask_] == kNil) ++d;
  check_scans_ += static_cast<std::uint64_t>(d - base_day_);
  base_day_ = d;
  std::uint32_t s = buckets_[static_cast<std::size_t>(d) & mask_];
  buckets_[static_cast<std::size_t>(d) & mask_] = kNil;
  while (s != kNil) {
    // ARPALINT-ALLOW(hot-path-alloc): drain vector retains capacity across days
    drain_.push_back(entry_of(s));
    s = meta_[s].next;
    --bucketed_;
  }
  std::sort(drain_.begin(), drain_.end(), later);
  drain_active_ = true;
  ++days_drained_;
  ++check_days_;
  check_events_ += drain_.size();
}

util::SimTime EventQueue::next_time() {
  ARPA_DCHECK(size_ > 0) << "next_time on an empty event queue";
  prepare();
  return util::SimTime::from_us(drain_.back().at_us);
}

SimEvent EventQueue::pop(util::SimTime& at) {
  ARPA_DCHECK(size_ > 0) << "pop from an empty event queue";
  prepare();
  const Entry e = drain_.back();
  drain_.pop_back();
  // The next pop's slab slot is already known (the new drain back); start
  // pulling its cache line while this event dispatches — freelist reuse
  // scatters consecutive pops across the slab, so they rarely share a line.
  if (!drain_.empty()) __builtin_prefetch(&slots_[drain_.back().slot]);
  at = util::SimTime::from_us(e.at_us);
  const SimEvent ev = slots_[e.slot];
  // ARPALINT-ALLOW(hot-path-alloc): freelist retains capacity
  free_.push_back(e.slot);
  --size_;
  if (size_ < buckets_.size() / 8 && buckets_.size() > kMinBuckets) {
    if (size_ == 0) {
      // Fully drained: fall back to the initial geometry for free instead
      // of running (and counting) a rebuild over nothing.
      // ARPALINT-ALLOW(hot-path-alloc): shrinking assign reuses storage
      buckets_.assign(kMinBuckets, kNil);
      mask_ = kMinBuckets - 1;
      day_bits_ = kMinDayBits;
      shift_ = kDefaultShift;
      drain_.clear();
      drain_active_ = false;
      check_days_ = check_events_ = check_scans_ = 0;
    } else {
      // ARPALINT-ALLOW(hot-path-alloc): shrinks the day array in place
      resize(buckets_for(size_));
    }
  }
  return ev;
}
// ARPALINT-HOTPATH-END

void EventQueue::check_occupancy() {
  // Pops only count while a day drains, so days is at least 1 here; the
  // max() keeps the division below safe regardless.
  const std::uint64_t days = std::max<std::uint64_t>(check_days_, 1);
  const std::uint64_t events = check_events_;
  const std::uint64_t scans = check_scans_;
  check_days_ = check_events_ = check_scans_ = 0;
  if (events > kMaxDayEvents * days && shift_ > 0) {
    // Too wide: narrow by the power of two the days ran over target.
    const int over = static_cast<int>(std::bit_width(
                         events / (kTargetDayEvents * days))) - 1;
    resize(buckets_.size(), 0, std::max(shift_ - std::max(over, 1), 0));
  } else if (events < kMinDayEvents * days && scans > kMaxDayScans * days &&
             shift_ < kMaxShift) {
    // Too narrow: mostly single-event days between runs of empty buckets.
    resize(buckets_.size(), shift_ + 1, kMaxShift);
  }
}

void EventQueue::resize(std::size_t nb, int min_shift, int max_shift) {
  // Collect every pending slot; the events themselves never move, only the
  // index structures are rebuilt around them.
  scratch_.clear();
  const auto collect = [this](std::uint32_t& head) {
    std::uint32_t s = head;
    head = kNil;
    while (s != kNil) {
      scratch_.push_back(s);
      s = meta_[s].next;
    }
  };
  for (std::uint32_t& head : buckets_) collect(head);
  for (std::uint32_t& head : far_) collect(head);
  for (const Entry& e : drain_) scratch_.push_back(e.slot);
  for (const Entry& e : overflow_) scratch_.push_back(e.slot);
  drain_.clear();
  drain_active_ = false;
  overflow_.clear();
  bucketed_ = 0;
  far_count_ = 0;
  check_days_ = check_events_ = check_scans_ = 0;
  ++resizes_;
  ARPA_DCHECK(scratch_.size() == size_);
  if (scratch_.empty()) return;

  std::int64_t min_at = std::numeric_limits<std::int64_t>::max();
  for (const std::uint32_t slot : scratch_) {
    min_at = std::min(min_at, meta_[slot].at_us);
  }
  // Log2 histogram of distances from the front: hist[b] counts events whose
  // distance has bit width b, i.e. lies in [2^(b-1), 2^b). Quantiles of the
  // pending population, read off without copying or sorting it.
  std::array<std::size_t, 65> hist{};
  for (const std::uint32_t slot : scratch_) {
    ++hist[static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(meta_[slot].at_us) -
                       static_cast<std::uint64_t>(min_at)))];
  }
  // Smallest bit width b such that at least `count` events lie closer than
  // 2^b to the front.
  const auto width_covering = [&hist](std::size_t count) {
    std::size_t cum = 0;
    int b = 0;
    for (; b < 64; ++b) {
      cum += hist[static_cast<std::size_t>(b)];
      if (cum >= count) break;
    }
    return b;
  };

  const std::size_t n = scratch_.size();
  const int day_bits = std::countr_zero(nb);

  // Brown's sampled-separation rule, on the queue front: the
  // kFrontSample-th nearest event lies in [2^(b-1), 2^b) from the front for
  // the b found here, so days of 2^b * kTargetDayEvents / kFrontSample hold
  // between kTargetDayEvents and twice that many of the sample.
  const std::size_t sample = std::min(kFrontSample, n);
  int shift = width_covering(sample);
  if (sample >= kTargetDayEvents) {
    shift -= static_cast<int>(std::bit_width(sample / kTargetDayEvents)) - 1;
  }
  // Wide enough that the far rung (kFarYears years of nb days) reaches all
  // but kOverflowSlack of the population, so the sorted overflow list stays
  // near-empty whatever the tail looks like.
  if (n > kOverflowSlack) {
    shift = std::max(shift, width_covering(n - kOverflowSlack) - day_bits -
                                kFarYearBits);
  }
  shift_ = std::clamp(std::clamp(shift, min_shift, max_shift), 0, kMaxShift);

  buckets_.assign(nb, kNil);
  mask_ = nb - 1;
  day_bits_ = day_bits;
  base_day_ = day_of(min_at);
  for (const std::uint32_t slot : scratch_) {
    if (!link(slot)) overflow_.push_back(entry_of(slot));
  }
  std::sort(overflow_.begin(), overflow_.end(), later);
  // Leave the staging empty, so a later reserve() copies nothing into
  // freshly touched pages.
  scratch_.clear();
}

}  // namespace arpanet::sim
