// The calendar queue (sim/event_queue.h): randomized order equivalence
// against the binary-heap semantics it replaced — through resizes, year
// spills, far-rung wrap-around, overflow and re-anchoring — the day-size
// health of an idle far-future population, and the plain SimEvent record
// layout (sim/event.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/event_queue.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

class NullSink : public EventSink {
 public:
  void handle_event(SimEvent& ev) override { (void)ev; }
};

/// The old binary heap's exact semantics: pop the minimum (time, seq) pair,
/// FIFO among equal times. The calendar queue must reproduce this order
/// bit-for-bit.
class ReferenceHeap {
 public:
  void schedule(std::int64_t at_us, std::uint64_t payload) {
    heap_.push_back(Entry{at_us, seq_++, payload});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  [[nodiscard]] std::pair<std::int64_t, std::uint64_t> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Entry e = heap_.back();
    heap_.pop_back();
    return {e.at_us, e.payload};
  }

 private:
  struct Entry {
    std::int64_t at_us;
    std::uint64_t seq;
    std::uint64_t payload;

    [[nodiscard]] bool operator>(const Entry& o) const {
      return at_us != o.at_us ? at_us > o.at_us : seq > o.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
};

struct Lcg {
  std::uint64_t state;

  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  }
};

/// The calendar queue and the reference heap driven in lockstep: every pop
/// must agree on (time, payload). Reports the first divergence only.
class Twin {
 public:
  void schedule(std::int64_t at_us, std::uint64_t payload) {
    ref_.schedule(at_us, payload);
    q.schedule(SimTime::from_us(at_us),
               SimEvent::host_flow_timeout(sink_, /*pair_index=*/0, payload,
                                           /*generation=*/1));
    ++schedules;
  }

  /// Pops the earliest event from both; returns its (time, payload).
  std::pair<std::int64_t, std::uint64_t> pop() {
    SimTime at;
    const SimEvent ev = q.pop(at);
    if (ref_.empty()) {
      if (!diverged) ADD_FAILURE() << "the queue invented event #" << ev.id();
      diverged = true;
    } else if (const auto [ref_at, ref_payload] = ref_.pop();
               !diverged && (at.us() != ref_at || ev.id() != ref_payload)) {
      diverged = true;
      ADD_FAILURE() << "pop " << pops << " diverged: queue (" << at.us()
                    << " us, #" << ev.id() << ") vs heap (" << ref_at
                    << " us, #" << ref_payload << ")";
    }
    ++pops;
    return {at.us(), ev.id()};
  }

  /// Pops both to empty; returns the last pop's time (`now_us` if none).
  std::int64_t drain(std::int64_t now_us = 0) {
    while (!q.empty()) now_us = pop().first;
    EXPECT_TRUE(ref_.empty()) << "the heap holds events the queue lost";
    return now_us;
  }

  EventQueue q;
  std::uint64_t schedules = 0;
  std::uint64_t pops = 0;
  bool diverged = false;

 private:
  ReferenceHeap ref_;
  NullSink sink_;
};

/// Drives a Twin through a random mix of schedules (gaps from `gap`, from a
/// clock starting at `now_us`) and pops, then drains it; returns the clock.
/// As in a real simulation, schedule times are >= the last popped time.
std::int64_t run_equivalence(Twin& t, Lcg& rng, std::uint64_t rounds,
                             std::uint64_t pop_bias,
                             const std::function<std::int64_t(Lcg&)>& gap,
                             std::int64_t now_us = 0) {
  for (std::uint64_t round = 0; round < rounds && !t.diverged; ++round) {
    if (t.q.empty() || rng.next() % 4 >= pop_bias) {
      t.schedule(now_us + gap(rng), t.schedules);
    } else {
      const std::int64_t at = t.pop().first;
      EXPECT_GE(at, now_us);
      now_us = at;
    }
  }
  // Drain both completely; the tails must match too.
  return t.drain(now_us);
}

TEST(CalendarQueueTest, MatchesHeapOrderOnNearFutureChurn) {
  // Dense near-future gaps (the simulator's dominant distribution),
  // including zero gaps that merge into the day being drained.
  Twin t;
  Lcg rng{12345};
  run_equivalence(t, rng, 20000, /*pop_bias=*/1,
                  [](Lcg& r) { return static_cast<std::int64_t>(r.next() % 200); });
  EXPECT_GT(t.q.peak_size(), 1000u) << "churn never built a real population";
  EXPECT_GT(t.q.resizes(), 0u) << "growth never re-derived the geometry";
}

TEST(CalendarQueueTest, MatchesHeapOrderAcrossWideSpansAndOverflow) {
  // Mostly near-future, but every ~16th event lands minutes-to-an-hour out:
  // exercises the sorted overflow list, its migration back into the window,
  // and overflow-pressure resizes.
  Twin t;
  Lcg rng{99991};
  run_equivalence(t, rng, 20000, /*pop_bias=*/2, [](Lcg& r) {
    if (r.next() % 16 == 0) {
      return static_cast<std::int64_t>(r.next() % 3'600'000'000ULL);
    }
    return static_cast<std::int64_t>(r.next() % 5000);
  });
  EXPECT_GT(t.q.overflow_scheduled(), 0u)
      << "the wide-span workload never hit the overflow path";
}

TEST(CalendarQueueTest, MatchesHeapOrderThroughGrowAndShrinkBoundaries) {
  // Alternating build-up and drain-down phases cross the grow and shrink
  // resize triggers repeatedly; order must hold through every relink.
  Twin t;
  Lcg rng{777};
  for (int phase = 0; phase < 4; ++phase) {
    // pop_bias 0: schedule-only (grow); pop_bias 3: pop 3 of 4 (shrink).
    run_equivalence(t, rng, 3000, /*pop_bias=*/phase % 2 == 0 ? 0 : 3,
                    [](Lcg& r) {
                      return static_cast<std::int64_t>(r.next() % 10000);
                    });
  }
  EXPECT_GT(t.q.resizes(), 1u);
}

TEST(CalendarQueueTest, FifoTieBreakSurvivesAResize) {
  EventQueue q;
  NullSink sink;
  const SimTime tie = SimTime::from_ms(500);
  // Interleave the tied events with enough fill to cross the grow trigger
  // (population > 2x buckets) mid-sequence.
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.schedule(tie, SimEvent::host_flow_timeout(sink, 0, i, 1));
    for (int j = 0; j < 10; ++j) {
      q.schedule(SimTime::from_us(static_cast<std::int64_t>(i * 10 + j)),
                 SimEvent::host_flow_timeout(sink, 1, 0, 0));
    }
  }
  EXPECT_GT(q.resizes(), 0u);
  std::uint64_t expected = 0;
  SimTime at;
  while (!q.empty()) {
    const SimEvent ev = q.pop(at);
    if (at == tie) {
      EXPECT_EQ(ev.id(), expected) << "FIFO tie-break broken after resize";
      ++expected;
    }
  }
  EXPECT_EQ(expected, 100u);
}

TEST(CalendarQueueTest, SameTickFifoIsKindAgnostic) {
  // Fault actions ride the same calendar queue as every other event kind; at
  // a shared tick the pop order is the scheduling order, regardless of kind.
  // The fault engine's determinism contract (docs/faults.md) rests on this:
  // a link-down landing on a measurement tick must always dispatch in the
  // order it was scheduled.
  EventQueue q;
  NullSink sink;
  const SimTime tie = SimTime::from_ms(250);
  for (std::uint32_t i = 0; i < 90; ++i) {
    switch (i % 3) {
      case 0:
        q.schedule(tie, SimEvent::fault_action(sink, i));
        break;
      case 1:
        q.schedule(tie, SimEvent::host_flow_timeout(sink, i, i, 1));
        break;
      default:
        q.schedule(tie, SimEvent::source_tick(sink, i));
        break;
    }
    // Off-tie fill keeps the bucket array churning between tied inserts.
    q.schedule(SimTime::from_us(i), SimEvent::measurement_period(sink, 0));
  }
  std::uint32_t expected = 0;
  SimTime at;
  while (!q.empty()) {
    const SimEvent ev = q.pop(at);
    if (at != tie) continue;
    const SimEvent::Kind want = expected % 3 == 0
                                    ? SimEvent::Kind::kFaultAction
                                : expected % 3 == 1
                                    ? SimEvent::Kind::kHostFlowTimeout
                                    : SimEvent::Kind::kSourceTick;
    EXPECT_EQ(ev.kind(), want) << "kind order broken at " << expected;
    EXPECT_EQ(ev.index(), expected) << "FIFO broken across kinds";
    ++expected;
  }
  EXPECT_EQ(expected, 90u);
}

TEST(CalendarQueueTest, ReAnchorsAfterDrainingToEmpty) {
  // An idle gap (queue fully drained, next event much later) must re-anchor
  // the window instead of scanning the dead days in between.
  EventQueue q;
  NullSink sink;
  SimTime at;
  q.schedule(SimTime::from_us(10), SimEvent::host_flow_timeout(sink, 0, 1, 0));
  (void)q.pop(at);
  EXPECT_TRUE(q.empty());
  q.schedule(SimTime::from_sec(7200.0),
             SimEvent::host_flow_timeout(sink, 0, 2, 0));
  q.schedule(SimTime::from_sec(3600.0),
             SimEvent::host_flow_timeout(sink, 0, 3, 0));
  EXPECT_EQ(q.next_time(), SimTime::from_sec(3600.0));
  EXPECT_EQ(q.pop(at).id(), 3u);
  EXPECT_EQ(q.pop(at).id(), 2u);
  EXPECT_EQ(at, SimTime::from_sec(7200.0));
}

// ---------------------------------------------------------------------------
// The far rung, year spills and the occupancy-driven day width
// ---------------------------------------------------------------------------

/// Uniform in [0, 1) from 31 LCG bits.
double unit(Lcg& rng) {
  return static_cast<double>(rng.next()) / static_cast<double>(1ULL << 31);
}

/// A gap of random bit width 0..max_bits: every scale from microseconds to
/// 2^max_bits us is equally likely, so any day width sees events in its
/// current year, in the far rung and beyond it.
std::int64_t log_uniform_gap(Lcg& rng, int max_bits) {
  const auto bits = static_cast<int>(rng.next() % (max_bits + 1));
  const std::uint64_t wide = (rng.next() << 31) | rng.next();
  return static_cast<std::int64_t>(wide & ((std::uint64_t{1} << bits) - 1));
}

TEST(CalendarQueueTest, IdleFarFuturePopulationKeepsDaysSmall) {
  // The pending set every traffic workload builds: one idle Poisson source
  // tick per traffic pair, seconds to hours out (60k pairs, mean gaps spread
  // log-uniformly over 1-1000 s, one pair in 2000 at 10^4 s), under about
  // 1k pending near-term events that fall due every ~20 us. A day width
  // taken from the whole horizon lets the farthest tick pick it: days then
  // hold hundreds of events and most schedules binary-insert into the day
  // being drained. Sized from the queue front, days hold a handful.
  constexpr std::uint64_t kPairs = 60'000;
  constexpr std::uint64_t kChurn = 1'000;
  constexpr std::int64_t kChurnSpanUs = 40'000;  // mean 20 ms, ~20 us apart
  constexpr std::uint64_t kPops = 300'000;
  Twin t;
  Lcg rng{2024};
  std::vector<double> mean_us(kPairs);
  for (std::uint64_t p = 0; p < kPairs; ++p) {
    mean_us[p] = p % 2000 == 0 ? 1e10 : 1e6 * std::pow(1000.0, unit(rng));
  }
  const auto pair_gap = [&](std::uint64_t p) {
    return 1 + static_cast<std::int64_t>(-mean_us[p] * std::log1p(-unit(rng)));
  };
  const auto churn_gap = [&] {
    return static_cast<std::int64_t>(rng.next() % kChurnSpanUs);
  };
  for (std::uint64_t p = 0; p < kPairs; ++p) t.schedule(pair_gap(p), p);
  for (std::uint64_t c = 0; c < kChurn; ++c) {
    t.schedule(churn_gap(), kPairs + c);
  }

  for (std::uint64_t i = 0; i < kPops && !t.diverged; ++i) {
    const auto [now, id] = t.pop();
    t.schedule(now + (id < kPairs ? pair_gap(id) : churn_gap()), id);
  }
  ASSERT_FALSE(t.diverged);
  ASSERT_GT(t.q.days_drained(), 0u);
  const double per_day = static_cast<double>(t.pops) /
                         static_cast<double>(t.q.days_drained());
  EXPECT_LE(per_day, 8.0) << "days hold " << per_day
                          << " events: the day width does not fit the front";
  EXPECT_LE(20 * t.q.drain_merges(), t.schedules)
      << t.q.drain_merges() << " of " << t.schedules
      << " schedules merged into the day being drained";
}

TEST(CalendarQueueTest, MatchesHeapOrderThroughYearSpillsFarWrapAndOverflow) {
  // A tiny near-term hold population keeps the clock moving: a year is
  // nbuckets days, so at this depth it passes every few dozen pops. Every
  // 32nd pop adds an event up to ~1 s out (current year or far rung), and
  // sixteen of them land up to ~13 days out (mostly beyond the far rung;
  // few enough that the population, and with it the year, stays small). The
  // window crosses thousands of years, so the far rung's year index wraps
  // around again and again.
  Twin t;
  Lcg rng{4242};
  std::uint64_t payload = 0;
  for (; payload < 8; ++payload) {
    t.schedule(static_cast<std::int64_t>(rng.next() % 4096), payload);
  }
  for (int i = 0; i < 200'000 && !t.diverged; ++i) {
    const auto [now, id] = t.pop();
    if (id >= 8) continue;  // a sprinkled event: not part of the hold
    t.schedule(now + static_cast<std::int64_t>(rng.next() % 4096), id);
    if (i % 32 == 0) t.schedule(now + log_uniform_gap(rng, 20), payload++);
    if (i % 1024 == 0 && i < 16 * 1024) {
      t.schedule(now + log_uniform_gap(rng, 40), payload++);
    }
  }
  t.drain();
  EXPECT_GT(t.q.years_advanced(), 1024u)
      << "the window never wrapped the far rung";
  EXPECT_GT(t.q.overflow_scheduled(), 0u)
      << "nothing landed beyond the far rung";
}

TEST(CalendarQueueTest, MatchesHeapOrderAfterRepeatedDrainsToEmpty) {
  // Each round fills the queue at a clock far past the last one — an idle
  // gap of up to ~2^40 us — with events at every scale, then drains it to
  // empty: the window re-anchors at the next event instead of walking the
  // dead days and years in between.
  Twin t;
  Lcg rng{31337};
  std::int64_t now_us = 0;
  for (int round = 0; round < 40 && !t.diverged; ++round) {
    const auto rounds = 200 + rng.next() % 2000;
    now_us = run_equivalence(
        t, rng, rounds, /*pop_bias=*/1,
        [](Lcg& r) { return log_uniform_gap(r, 30); },
        now_us + log_uniform_gap(rng, 40));
    ASSERT_TRUE(t.q.empty());
  }
  EXPECT_GT(t.q.years_advanced(), 0u);
}

TEST(CalendarQueueTest, FifoTiesHoldAcrossYearSpillsAndDrainMerges) {
  // Tie ticks from 10 ms to 100 s out get copies scheduled in every state
  // a tick passes through: far away (far rung or overflow), inside the
  // current year after a spill, and — once the tick is being popped —
  // merged into the day being drained. Copies must pop in scheduling order
  // (the heap comparison checks it) through all three.
  Twin t;
  Lcg rng{555};
  const std::vector<std::int64_t> ties = {10'000, 100'000, 1'000'000,
                                          10'000'000, 100'000'000};
  std::uint64_t payload = 0;
  for (; payload < 48; ++payload) {
    t.schedule(static_cast<std::int64_t>(rng.next() % 2000), payload);
  }
  const auto tie_copies = [&] {
    for (const std::int64_t tie : ties) {
      for (int k = 0; k < 3; ++k) t.schedule(tie, 1'000'000 + payload++);
    }
  };
  tie_copies();
  std::size_t merged_ties = 0;
  while (!t.q.empty() && !t.diverged) {
    const auto [now, id] = t.pop();
    if (id >= 1'000'000) {
      // Popping a tie copy: its day is draining. Add two more copies of
      // this tick while it does (they merge), the first few times.
      if (merged_ties < 20) {
        t.schedule(now, 1'000'000 + payload++);
        t.schedule(now, 1'000'000 + payload++);
        merged_ties += 2;
      }
      continue;
    }
    // Background churn until the last tie tick; more copies of every
    // pending tick now and then, from wherever the clock stands.
    if (now < ties.back()) {
      t.schedule(now + static_cast<std::int64_t>(rng.next() % 2000),
                 payload++);
      if (rng.next() % 4096 == 0) {
        for (const std::int64_t tie : ties) {
          if (tie >= now) t.schedule(tie, 1'000'000 + payload++);
        }
      }
    }
  }
  EXPECT_FALSE(t.diverged);
  EXPECT_GT(t.q.years_advanced(), 0u);
  EXPECT_GT(t.q.drain_merges(), 0u);
  EXPECT_EQ(merged_ties, 20u);
}

TEST(CalendarQueueTest, OccupancyTriggersResizeBothWaysAndKeepFifoTies) {
  // A constant population (pop one, push one) never crosses the grow or
  // shrink bounds, so every resize here is an occupancy trigger. Gaps are
  // quantized, so ties are everywhere. First the front is sparse and then
  // the churn packs densely at the front (days too wide); then the reverse
  // (days too narrow, mostly empty buckets scanned). Both must re-derive
  // the width, and order must hold through every rebuild.
  constexpr std::uint64_t kDepth = 2000;
  Twin t;
  Lcg rng{8086};
  std::uint64_t payload = 0;
  for (; payload < kDepth; ++payload) {
    t.schedule(static_cast<std::int64_t>(rng.next() % 10'000'000), payload);
  }
  const auto hold = [&](std::uint64_t ops, std::int64_t quantum,
                        std::uint64_t steps) {
    const std::uint64_t before = t.q.resizes();
    for (std::uint64_t i = 0; i < ops && !t.diverged; ++i) {
      const auto [now, id] = t.pop();
      (void)id;
      t.schedule(now + quantum * static_cast<std::int64_t>(rng.next() % steps),
                 payload++);
    }
    return t.q.resizes() - before;
  };
  // Dense: everything lands within 2 ms of the clock, on 50 us ticks.
  EXPECT_GT(hold(60'000, 50, 40), 0u) << "crowded days never narrowed";
  // Sparse: 10 s spread on 1 ms ticks against the narrowed days.
  EXPECT_GT(hold(60'000, 1000, 10'000), 0u) << "empty scans never widened";
  t.drain();
  EXPECT_FALSE(t.diverged);
}

// ---------------------------------------------------------------------------
// The SimEvent slab slot
// ---------------------------------------------------------------------------

TEST(SimEventLayoutTest, RecordIsTriviallyCopyableAndFitsACacheLine) {
  // The slab copies events in and out of its slots as plain bytes.
  EXPECT_TRUE(std::is_trivially_copyable_v<SimEvent>);
  EXPECT_LE(sizeof(SimEvent), 64u);
  EXPECT_EQ(alignof(SimEvent), alignof(void*));
}

TEST(SimEventLayoutTest, TypedPayloadRoundTripsThroughMoves) {
  NullSink sink;
  SimEvent ev = SimEvent::transmit_complete(
      sink, /*node=*/3, /*link=*/9, /*packet=*/12,
      /*queue_delay=*/SimTime::from_us(70), /*tx_time=*/SimTime::from_us(800),
      /*is_update=*/true);
  SimEvent moved = std::move(ev);
  SimEvent assigned = SimEvent::dv_tick(sink, 0);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.kind(), SimEvent::Kind::kTransmitComplete);
  EXPECT_EQ(assigned.index(), 3u);
  EXPECT_EQ(assigned.link(), 9u);
  EXPECT_EQ(assigned.packet(), 12u);
  EXPECT_EQ(assigned.t1(), SimTime::from_us(70));
  EXPECT_EQ(assigned.t2(), SimTime::from_us(800));
  EXPECT_TRUE(assigned.flag());
}

}  // namespace
}  // namespace arpanet::sim
