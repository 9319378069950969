// Property tests pinning the calendar scheduler to the binary heap: both
// must produce the exact (time, seq) FIFO total order for any push/pop
// interleaving, because golden RunMetrics (regression_test.cc) are
// bit-identical only if the schedulers are pop-for-pop interchangeable.

#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "test_util.h"
#include "util/rng.h"

namespace dupnet::sim {
namespace {

using dupnet::testing::ScriptedTarget;

struct RecordingTarget : EventTarget {
  void OnSimEvent(uint32_t, uint64_t) override {}
};

struct PoppedEvent {
  SimTime time;
  uint64_t seq;
  uint64_t arg;

  bool operator==(const PoppedEvent& other) const {
    return time == other.time && seq == other.seq && arg == other.arg;
  }
};

/// One scripted op: push `count` events at `time`, then pop `pops` events.
struct Op {
  SimTime time = 0.0;
  uint32_t pushes = 0;
  uint32_t pops = 0;
};

/// Runs the same op stream through one queue and returns its pop order.
std::vector<PoppedEvent> Drive(SchedulerKind kind, const std::vector<Op>& ops,
                               bool reserve) {
  EventQueue queue;
  queue.set_scheduler(kind);
  if (reserve) queue.Reserve(64);
  RecordingTarget target;
  std::vector<PoppedEvent> popped;
  uint64_t next_arg = 0;
  for (const Op& op : ops) {
    for (uint32_t i = 0; i < op.pushes; ++i) {
      queue.Push(op.time, &target, /*code=*/0, next_arg++);
    }
    for (uint32_t i = 0; i < op.pops && !queue.empty(); ++i) {
      const Event e = queue.Pop();
      popped.push_back({e.time, e.seq, e.arg});
    }
  }
  while (!queue.empty()) {
    const Event e = queue.Pop();
    popped.push_back({e.time, e.seq, e.arg});
  }
  return popped;
}

void ExpectIdenticalPopOrder(const std::vector<Op>& ops) {
  for (bool reserve : {false, true}) {
    const auto heap = Drive(SchedulerKind::kHeap, ops, reserve);
    const auto calendar = Drive(SchedulerKind::kCalendar, ops, reserve);
    ASSERT_EQ(heap.size(), calendar.size());
    for (size_t i = 0; i < heap.size(); ++i) {
      ASSERT_EQ(heap[i], calendar[i])
          << "divergence at pop " << i << " (reserve=" << reserve << ")";
    }
  }
}

TEST(SchedulerEquivalenceTest, SameTimestampBurstsPopInFifoOrder) {
  // Many events at identical timestamps: the order must be pure FIFO, the
  // case the calendar's same-time lane handling could most easily break.
  std::vector<Op> ops;
  for (int round = 0; round < 8; ++round) {
    ops.push_back({1.0, /*pushes=*/32, /*pops=*/0});
    ops.push_back({1.0, /*pushes=*/32, /*pops=*/16});
    ops.push_back({2.0, /*pushes=*/16, /*pops=*/48});
  }
  ExpectIdenticalPopOrder(ops);
}

TEST(SchedulerEquivalenceTest, FarFutureSpillRedistributes) {
  // A near-term working set plus events far beyond the calendar year
  // (soft-state refresh timers, retry backoffs): the overflow chain must
  // redistribute into later years in exact order.
  std::vector<Op> ops;
  for (int i = 0; i < 64; ++i) {
    ops.push_back({0.001 * i, /*pushes=*/4, /*pops=*/0});
    ops.push_back({1000.0 + 17.0 * i, /*pushes=*/2, /*pops=*/3});
  }
  ops.push_back({2000.0, /*pushes=*/1, /*pops=*/64});
  ExpectIdenticalPopOrder(ops);
}

TEST(SchedulerEquivalenceTest, RandomisedChurnMatchesHeapExactly) {
  // Randomised interleavings with monotone "now", duplicate timestamps,
  // bursts, and occasional far-future pushes — the full contract.
  util::Rng rng(0xfeed5eedu);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Op> ops;
    SimTime now = 0.0;
    for (int step = 0; step < 200; ++step) {
      Op op;
      const double kind = rng.UniformDouble(0.0, 1.0);
      if (kind < 0.70) {
        op.time = now + rng.UniformDouble(0.0, 2.0);
      } else if (kind < 0.85) {
        op.time = now;  // Same-timestamp burst.
      } else {
        op.time = now + rng.UniformDouble(100.0, 5000.0);  // Far future.
      }
      op.pushes = static_cast<uint32_t>(rng.UniformInt(0, 8));
      op.pops = static_cast<uint32_t>(rng.UniformInt(0, 6));
      ops.push_back(op);
      now += rng.UniformDouble(0.0, 0.5);
    }
    ExpectIdenticalPopOrder(ops);
  }
}

TEST(SchedulerEquivalenceTest, DrainToEmptyAndReanchor) {
  // Repeatedly drain the queue completely, then push behind/ahead of the
  // previous anchor: the calendar must re-anchor at the new first event.
  std::vector<Op> ops;
  for (int round = 0; round < 10; ++round) {
    const double base = 50.0 * round;
    ops.push_back({base + 5.0, /*pushes=*/8, /*pops=*/0});
    ops.push_back({base + 0.5, /*pushes=*/8, /*pops=*/100});  // Drain all.
  }
  ExpectIdenticalPopOrder(ops);
}

TEST(SchedulerEquivalenceTest, EngineRunsIdenticallyOnBothSchedulers) {
  // End-to-end: the same scripted workload on two engines, one per
  // scheduler, fires in the same order at the same times.
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kCalendar}) {
    Engine engine;
    engine.set_scheduler(kind);
    std::vector<uint64_t> order;
    ScriptedTarget target([&](uint32_t, uint64_t tag) {
      order.push_back(tag);
      if (tag == 2) {
        engine.ScheduleAt(1.0, &target, 0, 3);  // Same time.
        engine.ScheduleAt(1.5, &target, 0, 4);
      }
    });
    engine.ScheduleAt(2.0, &target, 0, 1);
    engine.ScheduleAt(1.0, &target, 0, 2);
    engine.Run();
    EXPECT_EQ(order, (std::vector<uint64_t>{2, 3, 4, 1}))
        << "scheduler kind " << static_cast<int>(kind);
  }
}

/// A heap and a calendar queue driven in lockstep: every push goes to both,
/// and every pop must return the same event from both.
class LockstepQueues {
 public:
  explicit LockstepQueues(size_t reserve = 0) {
    heap_.set_scheduler(SchedulerKind::kHeap);
    calendar_.set_scheduler(SchedulerKind::kCalendar);
    if (reserve > 0) {
      heap_.Reserve(reserve);
      calendar_.Reserve(reserve);
    }
  }

  void Push(SimTime time, uint64_t arg) {
    heap_.Push(time, &target_, /*code=*/0, arg);
    calendar_.Push(time, &target_, /*code=*/0, arg);
  }

  /// Pops the next event from both queues into `out`; records a failure
  /// and returns false when they disagree.
  bool Pop(PoppedEvent* out) {
    const Event h = heap_.Pop();
    const Event c = calendar_.Pop();
    *out = {h.time, h.seq, h.arg};
    if (*out == PoppedEvent{c.time, c.seq, c.arg}) {
      ++pops_;
      return true;
    }
    ADD_FAILURE() << "divergence at pop " << pops_ << ": heap (" << h.time
                  << ", " << h.seq << ") vs calendar (" << c.time << ", "
                  << c.seq << ")";
    return false;
  }

  bool Drain() {
    PoppedEvent e;
    while (!heap_.empty()) {
      if (!Pop(&e)) return false;
    }
    return calendar_.empty();
  }

  EventQueue& calendar() { return calendar_; }

 private:
  RecordingTarget target_;
  EventQueue heap_;
  EventQueue calendar_;
  uint64_t pops_ = 0;
};

/// The two-mode hold time of the paper's event mix: with probability
/// `near` a hop delivery, Exp(0.1 s) out; otherwise a TTL, push-lead or
/// refresh timer, U(100, 600) s out.
SimTime MixedHold(util::Rng& rng, double near) {
  return rng.Bernoulli(near) ? rng.Exponential(0.1)
                             : rng.UniformDouble(100.0, 600.0);
}

TEST(SchedulerEquivalenceTest, MixedHorizonHoldModelMatchesHeapWithoutStorms) {
  // Hold model over a two-mode pending set. The pending set's 75th
  // percentile sits in the far mode whenever near events are a minority
  // of what is pending, so a width taken from it is hundreds of times too
  // wide; rebuilds then chase each other (about one per second push at
  // 200 held, near = 0.5). The width taken from the pop stream keeps
  // rebuilds to year ends, growth and a few corrections.
  constexpr uint64_t kOps = uint64_t{1} << 18;
  for (size_t held : {size_t{200}, size_t{20000}}) {
    for (double near : {0.05, 0.25, 0.5, 0.9}) {
      for (bool reserve : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "held=" << held << " near="
                                          << near << " reserve=" << reserve);
        LockstepQueues queues(reserve ? held : 0);
        util::Rng rng(0x401dU + held);
        for (size_t i = 0; i < held; ++i) queues.Push(MixedHold(rng, near), i);
        PoppedEvent e;
        for (uint64_t op = 0; op < kOps; ++op) {
          ASSERT_TRUE(queues.Pop(&e));
          queues.Push(e.time + MixedHold(rng, near), e.arg);
        }
        ASSERT_TRUE(queues.Drain());
        EXPECT_LE(queues.calendar().rebuilds(), kOps / 128);
      }
    }
  }
}

TEST(SchedulerEquivalenceTest, BurstBehindTheCursorMatchesHeap) {
  // A steady stream one second apart sizes buckets at a few seconds. Then
  // 10^5 pushes land between the last popped time and the next pending
  // event: inside the bucket already drained into the lane, in random
  // order or all tied. As sorted lane inserts that is ~10^10 element
  // moves; re-anchoring the year turns them into O(1) chain pushes after
  // a handful of rebuilds. The reserved queue never grows its bucket
  // array, so only the lane trigger can do that.
  constexpr uint64_t kBurst = 100000;
  for (bool reserve : {false, true}) {
    for (bool tied : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "reserve=" << reserve
                                        << " tied=" << tied);
      LockstepQueues queues(reserve ? 2 * kBurst : 0);
      util::Rng rng(0xb0257u);
      for (uint64_t i = 0; i < 1000; ++i) {
        queues.Push(static_cast<double>(i), i);
      }
      PoppedEvent e;
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(queues.Pop(&e));
        queues.Push(e.time + 1000.0, e.arg);
      }
      const SimTime now = e.time;
      const SimTime next = queues.calendar().PeekTime();
      ASSERT_GT(next, now);
      const uint64_t rebuilds_before = queues.calendar().rebuilds();
      for (uint64_t i = 0; i < kBurst; ++i) {
        queues.Push(tied ? next : rng.UniformDouble(now, next), 1000 + i);
      }
      // Without a re-anchor every push is a sorted lane insert, O(n^2) in
      // all; a rebuild per push would be just as quadratic.
      const uint64_t burst_rebuilds =
          queues.calendar().rebuilds() - rebuilds_before;
      EXPECT_GE(burst_rebuilds, 1u);
      EXPECT_LE(burst_rebuilds, 16u);
      ASSERT_TRUE(queues.Drain());
    }
  }
}

TEST(SchedulerEquivalenceDeathTest, NonFiniteEventTimesAbort) {
  // NaN compares false against everything and would fire out of order;
  // +/-inf would park the clock at infinity. Both schedulers refuse them.
  RecordingTarget target;
  for (SchedulerKind kind : {SchedulerKind::kHeap, SchedulerKind::kCalendar}) {
    EventQueue queue;
    queue.set_scheduler(kind);
    queue.Push(1.0, &target, 0);
    EXPECT_DEATH(queue.Push(std::numeric_limits<double>::quiet_NaN(),
                            &target, 0),
                 "non-finite event time nan");
    EXPECT_DEATH(queue.Push(std::numeric_limits<double>::infinity(),
                            &target, 0),
                 "non-finite event time inf");
    EXPECT_DEATH(queue.Push(-std::numeric_limits<double>::infinity(),
                            &target, 0),
                 "non-finite event time -inf");
  }
  Engine engine;
  EXPECT_DEATH(engine.ScheduleAfter(std::numeric_limits<double>::infinity(),
                                    &target, 0),
               "non-finite event time inf");
}

#ifndef DUP_ENABLE_DCHECKS
TEST(SchedulerEquivalenceTest, ScheduleAtInThePastClampsToNow) {
  // Release-build contract (docs/simulator.md): a past timestamp is
  // clamped to now (debug builds assert instead — hence the gate above).
  Engine engine;
  std::vector<SimTime> fired_at;
  ScriptedTarget target([&](uint32_t code, uint64_t) {
    if (code == 0) {
      engine.ScheduleAt(1.0, &target, 1);
    } else {
      fired_at.push_back(engine.Now());
    }
  });
  engine.ScheduleAt(5.0, &target, 0);
  engine.ScheduleAt(6.0, &target, 1);
  engine.Run();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[0], 5.0);  // Clamped, not 1.0 — and time never ran
  EXPECT_EQ(fired_at[1], 6.0);  // backwards for the later event.
}
#endif  // DUP_ENABLE_DCHECKS

}  // namespace
}  // namespace dupnet::sim
