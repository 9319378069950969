#include "sim/engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "test_util.h"

namespace dupnet::sim {
namespace {

using dupnet::testing::ScriptedTarget;

/// Collects (code, arg) pairs for typed-dispatch assertions.
class RecordingTarget : public EventTarget {
 public:
  void OnSimEvent(uint32_t code, uint64_t arg) override {
    events.emplace_back(code, arg);
  }
  /// The args in firing order.
  std::vector<uint64_t> args() const {
    std::vector<uint64_t> out;
    for (const auto& event : events) out.push_back(event.second);
    return out;
  }
  std::vector<std::pair<uint32_t, uint64_t>> events;
};

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  RecordingTarget target;
  q.Push(3.0, &target, 0, 3);
  q.Push(1.0, &target, 0, 1);
  q.Push(2.0, &target, 0, 2);
  while (!q.empty()) q.Pop().Fire();
  EXPECT_EQ(target.args(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  RecordingTarget target;
  for (uint64_t i = 0; i < 10; ++i) q.Push(5.0, &target, 0, i);
  while (!q.empty()) q.Pop().Fire();
  const std::vector<uint64_t> order = target.args();
  ASSERT_EQ(order.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, TypedEventsCarryTargetCodeAndArg) {
  EventQueue q;
  RecordingTarget target;
  q.Push(2.0, &target, /*code=*/7, /*arg=*/42);
  q.Push(1.0, &target, /*code=*/3, /*arg=*/9);
  Event first = q.Pop();
  EXPECT_EQ(first.target, &target);
  EXPECT_EQ(first.code, 3u);
  EXPECT_EQ(first.arg, 9u);
  first.Fire();
  q.Pop().Fire();
  ASSERT_EQ(target.events.size(), 2u);
  EXPECT_EQ(target.events[0], (std::pair<uint32_t, uint64_t>{3u, 9u}));
  EXPECT_EQ(target.events[1], (std::pair<uint32_t, uint64_t>{7u, 42u}));
}

TEST(EventQueueTest, FifoTieOrderSurvivesInterleavedPopsStress) {
  // Regression for the moved-from comparator hazard: the old
  // priority_queue-based Pop() moved the Event out of top() and then let
  // pop() re-heapify over the moved-from element — comparator calls on a
  // dead payload. With many equal timestamps and pops interleaved with
  // pushes, any comparator misbehaviour during re-heapify scrambles the
  // FIFO tie order. The pooled design keeps payloads out of the heap
  // entirely, so this must hold for any pattern.
  EventQueue q;
  std::vector<uint64_t> order;
  RecordingTarget target;
  uint64_t next_tag = 0;
  // Three waves: push a burst at one of two timestamps, pop a few, repeat.
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 20; ++i) {
      q.Push(wave % 2 == 0 ? 10.0 : 20.0, &target, 0, next_tag++);
    }
    for (int i = 0; i < 10 && !q.empty(); ++i) {
      order.push_back(q.Pop().arg);
    }
  }
  while (!q.empty()) order.push_back(q.Pop().arg);

  // Every event must come out exactly once, and within each timestamp the
  // tags must be strictly increasing (FIFO by push order).
  ASSERT_EQ(order.size(), next_tag);
  std::vector<bool> seen(next_tag, false);
  for (uint64_t tag : order) {
    ASSERT_LT(tag, next_tag);
    EXPECT_FALSE(seen[tag]) << "tag " << tag << " popped twice";
    seen[tag] = true;
  }
  // Equal-time events were pushed with increasing tags; reconstruct each
  // timestamp's subsequence and require it sorted.
  std::vector<uint64_t> even_wave_tags, odd_wave_tags;
  for (uint64_t tag : order) {
    ((tag / 20) % 2 == 0 ? even_wave_tags : odd_wave_tags).push_back(tag);
  }
  EXPECT_TRUE(std::is_sorted(even_wave_tags.begin(), even_wave_tags.end()));
  EXPECT_TRUE(std::is_sorted(odd_wave_tags.begin(), odd_wave_tags.end()));
}

TEST(EventQueueTest, PoolSlotsAreRecycled) {
  EventQueue q;
  RecordingTarget target;
  // Steady-state: never more than 4 pending, so the pool must not grow
  // past its high-water mark no matter how many events flow through.
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 4; ++i) q.Push(static_cast<SimTime>(i), &target, 0, 0);
    while (!q.empty()) q.Pop().Fire();
  }
  EXPECT_EQ(q.pool_slots(), 4u);
  EXPECT_EQ(q.pushed(), 4000u);
}

TEST(EventQueueTest, PeekTimeMatchesNext) {
  EventQueue q;
  RecordingTarget target;
  q.Push(2.0, &target, 0);
  q.Push(1.0, &target, 0);
  EXPECT_DOUBLE_EQ(q.PeekTime(), 1.0);
  q.Pop();
  EXPECT_DOUBLE_EQ(q.PeekTime(), 2.0);
}

TEST(EventQueueTest, SizeAndPushedCounters) {
  EventQueue q;
  RecordingTarget target;
  EXPECT_TRUE(q.empty());
  q.Push(1.0, &target, 0);
  q.Push(2.0, &target, 0);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pushed(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pushed(), 2u);
}

TEST(EngineTest, ClockStartsAtZero) {
  Engine engine;
  EXPECT_DOUBLE_EQ(engine.Now(), 0.0);
}

TEST(EngineTest, StepAdvancesClockToEventTime) {
  Engine engine;
  RecordingTarget target;
  engine.ScheduleAt(4.5, &target, 0);
  EXPECT_TRUE(engine.Step());
  EXPECT_DOUBLE_EQ(engine.Now(), 4.5);
  EXPECT_FALSE(engine.Step());
}

TEST(EngineTest, ScheduleAfterIsRelative) {
  Engine engine;
  double fired_at = -1;
  ScriptedTarget target([&](uint32_t code, uint64_t) {
    if (code == 0) {
      engine.ScheduleAfter(3.0, &target, 1);
    } else {
      fired_at = engine.Now();
    }
  });
  engine.ScheduleAt(2.0, &target, 0);
  engine.Run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EngineTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  RecordingTarget target;
  engine.ScheduleAt(1.0, &target, 0);
  engine.ScheduleAt(2.0, &target, 0);
  engine.ScheduleAt(10.0, &target, 0);
  engine.RunUntil(5.0);
  EXPECT_EQ(target.events.size(), 2u);
  EXPECT_DOUBLE_EQ(engine.Now(), 5.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(EngineTest, RunUntilIncludesEventsExactlyAtBoundary) {
  Engine engine;
  RecordingTarget target;
  engine.ScheduleAt(5.0, &target, 0);
  engine.RunUntil(5.0);
  EXPECT_EQ(target.events.size(), 1u);
}

TEST(EngineTest, EventsScheduledDuringRunAreProcessed) {
  Engine engine;
  std::vector<double> times;
  ScriptedTarget target([&](uint32_t code, uint64_t) {
    times.push_back(engine.Now());
    if (code == 0) engine.ScheduleAfter(0.5, &target, 1);
  });
  engine.ScheduleAt(1.0, &target, 0);
  engine.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EngineTest, RunWithEventCapStopsEarly) {
  Engine engine;
  // Self-perpetuating event chain.
  ScriptedTarget loop(
      [&](uint32_t, uint64_t) { engine.ScheduleAfter(1.0, &loop, 0); });
  engine.ScheduleAfter(1.0, &loop, 0);
  engine.Run(/*max_events=*/100);
  EXPECT_EQ(engine.processed(), 100u);
}

TEST(EngineTest, ProcessedCounter) {
  Engine engine;
  RecordingTarget target;
  for (int i = 0; i < 7; ++i) engine.ScheduleAt(i, &target, 0);
  engine.Run();
  EXPECT_EQ(engine.processed(), 7u);
}

TEST(EngineTest, TypedScheduleDispatchesThroughTarget) {
  Engine engine;
  RecordingTarget target;
  engine.ScheduleAt(2.0, &target, /*code=*/1, /*arg=*/11);
  engine.ScheduleAfter(1.0, &target, /*code=*/2, /*arg=*/22);
  engine.Run();
  ASSERT_EQ(target.events.size(), 2u);
  EXPECT_EQ(target.events[0], (std::pair<uint32_t, uint64_t>{2u, 22u}));
  EXPECT_EQ(target.events[1], (std::pair<uint32_t, uint64_t>{1u, 11u}));
  EXPECT_DOUBLE_EQ(engine.Now(), 2.0);
}

TEST(EngineTest, PoolHighWaterMarkTracksPeakPending) {
  Engine engine;
  RecordingTarget target;
  for (int i = 0; i < 8; ++i) engine.ScheduleAt(i, &target, 0, 0);
  engine.Run();
  EXPECT_EQ(engine.pool_slots(), 8u);
  // A second identical burst reuses the recycled slots.
  for (int i = 0; i < 8; ++i) engine.ScheduleAfter(i, &target, 0, 0);
  engine.Run();
  EXPECT_EQ(engine.pool_slots(), 8u);
}

TEST(EngineTest, SameTimeEventsRunInScheduleOrderAcrossNesting) {
  Engine engine;
  std::vector<uint64_t> order;
  ScriptedTarget target([&](uint32_t, uint64_t tag) {
    order.push_back(tag);
    if (tag == 0) engine.ScheduleAt(1.0, &target, 0, 2);
  });
  engine.ScheduleAt(1.0, &target, 0, 0);
  engine.ScheduleAt(1.0, &target, 0, 1);
  engine.Run();
  EXPECT_EQ(order, (std::vector<uint64_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dupnet::sim
