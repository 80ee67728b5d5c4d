// The allocation-free event engine (sim/event.h, sim/event_queue.h): typed
// SimEvent dispatch, deterministic (time, seq) ordering, and the
// slab/freelist behind the calendar queue.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/event.h"
#include "src/sim/event_queue.h"

namespace arpanet::sim {
namespace {

using util::SimTime;

/// Records a copy of every event dispatched to it.
class RecordingSink : public EventSink {
 public:
  void handle_event(SimEvent& ev) override { events.push_back(ev); }

  [[nodiscard]] std::vector<std::uint32_t> indices() const {
    std::vector<std::uint32_t> out;
    for (const SimEvent& ev : events) out.push_back(ev.index());
    return out;
  }

  std::vector<SimEvent> events;
};

TEST(EventQueueTest, SimultaneousEventsPopInSchedulingOrder) {
  EventQueue q;
  RecordingSink sink;
  const SimTime t = SimTime::from_ms(5);
  for (std::uint32_t i = 0; i < 8; ++i) {
    q.schedule(t, SimEvent::source_tick(sink, i));
  }
  SimTime at;
  while (!q.empty()) q.pop(at).fire();
  EXPECT_EQ(sink.indices(),
            (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(at, t);
}

TEST(EventQueueTest, FifoTieBreakSurvivesInterleavedPops) {
  // Popping between schedules recycles slab slots; recycled slots must not
  // perturb the (time, seq) order of events that are still pending.
  EventQueue q;
  RecordingSink sink;
  q.schedule(SimTime::from_ms(1), SimEvent::source_tick(sink, 1));
  q.schedule(SimTime::from_ms(3), SimEvent::source_tick(sink, 3));
  SimTime at;
  q.pop(at).fire();  // t=1ms; frees a slot
  q.schedule(SimTime::from_ms(3), SimEvent::source_tick(sink, 33));
  q.schedule(SimTime::from_ms(2), SimEvent::source_tick(sink, 2));
  while (!q.empty()) q.pop(at).fire();
  EXPECT_EQ(sink.indices(), (std::vector<std::uint32_t>{1, 2, 3, 33}));
}

TEST(EventQueueTest, PeakSizeIsAHighWaterMark) {
  EventQueue q;
  RecordingSink sink;
  EXPECT_EQ(q.peak_size(), 0u);
  for (int i = 0; i < 5; ++i) {
    q.schedule(SimTime::from_ms(i), SimEvent::source_tick(sink, 0));
  }
  EXPECT_EQ(q.peak_size(), 5u);
  SimTime at;
  while (!q.empty()) (void)q.pop(at);
  EXPECT_EQ(q.size(), 0u);
  q.schedule(SimTime::from_ms(9), SimEvent::source_tick(sink, 0));
  EXPECT_EQ(q.peak_size(), 5u) << "draining must not reset the peak";
}

TEST(EventQueueTest, TypedEventsDispatchThroughTheirSink) {
  EventQueue q;
  RecordingSink sink;
  q.schedule(SimTime::from_ms(2), SimEvent::measurement_period(sink, 4));
  q.schedule(SimTime::from_ms(1), SimEvent::source_tick(sink, 7));
  q.schedule(SimTime::from_ms(3),
             SimEvent::propagation_arrival(sink, /*link=*/2, /*packet=*/5));
  SimTime at;
  while (!q.empty()) q.pop(at).fire();
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind(), SimEvent::Kind::kSourceTick);
  EXPECT_EQ(sink.events[0].index(), 7u);
  EXPECT_EQ(sink.events[1].kind(), SimEvent::Kind::kMeasurementPeriod);
  EXPECT_EQ(sink.events[1].index(), 4u);
  EXPECT_EQ(sink.events[2].kind(), SimEvent::Kind::kPropagationArrival);
  EXPECT_EQ(sink.events[2].link(), 2u);
  EXPECT_EQ(sink.events[2].packet(), 5u);
}

TEST(EventQueueTest, TransmitCompleteCarriesItsPayload) {
  EventQueue q;
  RecordingSink sink;
  q.schedule(SimTime::from_ms(1),
             SimEvent::transmit_complete(sink, /*node=*/3, /*link=*/9,
                                         /*packet=*/12,
                                         /*queue_delay=*/SimTime::from_us(70),
                                         /*tx_time=*/SimTime::from_us(800),
                                         /*is_update=*/true));
  SimTime at;
  q.pop(at).fire();
  ASSERT_EQ(sink.events.size(), 1u);
  const SimEvent& ev = sink.events[0];
  EXPECT_EQ(ev.kind(), SimEvent::Kind::kTransmitComplete);
  EXPECT_EQ(ev.index(), 3u);
  EXPECT_EQ(ev.link(), 9u);
  EXPECT_EQ(ev.packet(), 12u);
  EXPECT_EQ(ev.t1(), SimTime::from_us(70));
  EXPECT_EQ(ev.t2(), SimTime::from_us(800));
  EXPECT_TRUE(ev.flag());
}

TEST(EventQueueTest, MixedTimesPopInTimeOrderUnderChurn) {
  // Deterministic pseudo-random schedule/pop churn; the popped times must
  // come out nondecreasing and FIFO among ties no matter how the slab
  // recycles slots. Each event's index is its scheduling order.
  EventQueue q;
  RecordingSink sink;
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>(state >> 33);
  };
  // As in a real simulation, new events are scheduled at or after the
  // current time (the last popped timestamp).
  SimTime now = SimTime::zero();
  std::uint32_t scheduled = 0;
  bool popped = false;
  std::uint32_t last_index = 0;
  for (int round = 0; round < 2000; ++round) {
    if (q.empty() || next() % 3 != 0) {
      q.schedule(now + SimTime::from_us(next() % 50),
                 SimEvent::source_tick(sink, scheduled++));
    } else {
      SimTime at;
      const SimEvent ev = q.pop(at);
      EXPECT_GE(at, now) << "time went backwards at round " << round;
      if (popped && at == now) {
        EXPECT_GT(ev.index(), last_index) << "tie popped out of order";
      }
      now = at;
      popped = true;
      last_index = ev.index();
    }
  }
  EXPECT_LE(q.peak_size(), static_cast<std::size_t>(scheduled));
}

}  // namespace
}  // namespace arpanet::sim
