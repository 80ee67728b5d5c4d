#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

namespace arpanet::sim {
namespace {

using util::SimTime;

/// Records the index of every event dispatched to it and, when attached to a
/// Simulator, the clock at dispatch. `on_event` runs after recording, so a
/// test can schedule follow-up events from inside handle_event.
class RecordingSink : public EventSink {
 public:
  RecordingSink() = default;
  explicit RecordingSink(const Simulator& sim) : sim_{&sim} {}

  void handle_event(SimEvent& ev) override {
    indices.push_back(ev.index());
    if (sim_ != nullptr) times.push_back(sim_->now());
    if (on_event) on_event(ev);
  }

  std::vector<std::uint32_t> indices;
  std::vector<SimTime> times;
  std::function<void(const SimEvent&)> on_event;

 private:
  const Simulator* sim_ = nullptr;
};

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  RecordingSink sink;
  q.schedule(SimTime::from_ms(30), SimEvent::source_tick(sink, 3));
  q.schedule(SimTime::from_ms(10), SimEvent::source_tick(sink, 1));
  q.schedule(SimTime::from_ms(20), SimEvent::source_tick(sink, 2));
  while (!q.empty()) {
    SimTime at;
    q.pop(at).fire();
  }
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  RecordingSink sink;
  for (std::uint32_t i = 0; i < 5; ++i) {
    q.schedule(SimTime::from_ms(7), SimEvent::source_tick(sink, i));
  }
  while (!q.empty()) {
    SimTime at;
    q.pop(at).fire();
  }
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  RecordingSink sink{sim};
  sim.schedule_at(SimTime::from_ms(42), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(sink.times, (std::vector<SimTime>{SimTime::from_ms(42)}));
  EXPECT_EQ(sim.now(), SimTime::from_sec(1));  // left at the horizon
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  RecordingSink sink{sim};
  sink.on_event = [&](const SimEvent& ev) {
    if (ev.index() == 0) {
      sim.schedule_in(SimTime::from_ms(10), SimEvent::source_tick(sink, 1));
    }
  };
  sim.schedule_in(SimTime::from_ms(10), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(sink.times, (std::vector<SimTime>{SimTime::from_ms(10),
                                              SimTime::from_ms(20)}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  RecordingSink sink;
  sim.schedule_at(SimTime::from_ms(10), SimEvent::source_tick(sink, 0));
  sim.schedule_at(SimTime::from_ms(999), SimEvent::source_tick(sink, 1));
  sim.run_until(SimTime::from_ms(100));
  EXPECT_EQ(sink.indices.size(), 1u);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(sink.indices.size(), 2u);
}

TEST(SimulatorTest, PastSchedulingThrows) {
  Simulator sim;
  RecordingSink sink;
  sim.schedule_at(SimTime::from_ms(50), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_ms(100));
  EXPECT_THROW(
      sim.schedule_at(SimTime::from_ms(10), SimEvent::source_tick(sink, 1)),
      std::logic_error);
}

TEST(SimulatorDeathTest, ScheduleInPastSimTimesRangeDies) {
  // now + delay beyond int64 microseconds would wrap into the past; the
  // checked add aborts naming both operands instead.
  RecordingSink sink;
  Simulator sim;
  sim.schedule_in(SimTime::from_sec(5), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_sec(5));
  EXPECT_DEATH(sim.schedule_in(SimTime::max(), SimEvent::source_tick(sink, 1)),
               "schedule_in overflows SimTime: now 5000000 us \\+ delay "
               "9223372036854775807 us");
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  RecordingSink sink;
  sim.schedule_at(SimTime::from_ms(1), SimEvent::source_tick(sink, 0));
  sim.schedule_at(SimTime::from_ms(2), SimEvent::source_tick(sink, 1));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sink.indices.size(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, EventsCanCascadeAtSameTime) {
  // Each dispatch schedules the next event for the current instant; the
  // cascade runs to completion within the same run_until at t = 1 ms.
  Simulator sim;
  RecordingSink sink{sim};
  sink.on_event = [&](const SimEvent& ev) {
    if (ev.index() + 1 < 5) {
      sim.schedule_in(SimTime::zero(),
                      SimEvent::source_tick(sink, ev.index() + 1));
    }
  };
  sim.schedule_at(SimTime::from_ms(1), SimEvent::source_tick(sink, 0));
  sim.run_until(SimTime::from_ms(2));
  EXPECT_EQ(sink.indices, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sink.times, std::vector<SimTime>(5, SimTime::from_ms(1)));
}

}  // namespace
}  // namespace arpanet::sim
