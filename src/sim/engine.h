#ifndef DUP_SIM_ENGINE_H_
#define DUP_SIM_ENGINE_H_

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"

namespace dupnet::sim {

/// The discrete-event simulation core: a clock plus an event queue.
///
/// Usage:
///   Engine engine;
///   engine.ScheduleAfter(1.5, &target, kCode, arg);  // target: EventTarget
///   engine.RunUntil(3600.0);
///
/// Every event is typed: it fires `target->OnSimEvent(code, arg)`, so the
/// hot path never boxes a closure. Events scheduled while running are
/// processed in timestamp order; ties break in FIFO scheduling order, so
/// execution is deterministic.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// Selects the event-queue scheduler (calendar by default, heap kept as
  /// the reference implementation). Only legal before the first event is
  /// scheduled; both produce bit-identical execution orders.
  void set_scheduler(SchedulerKind kind) { queue_.set_scheduler(kind); }
  SchedulerKind scheduler() const { return queue_.scheduler(); }

  /// Schedules `target->OnSimEvent(code, arg)` at absolute simulated time
  /// `time`; allocation-free once the event pool is warm. Scheduling in
  /// the past is a contract violation: it fires a DUP_DCHECK in sanitizer
  /// builds and is repaired by clamping `time` to Now() in release builds
  /// (the event still runs, after everything already scheduled for Now()).
  void ScheduleAt(SimTime time, EventTarget* target, uint32_t code,
                  uint64_t arg = 0);

  /// Same, `delay` seconds from Now(). Pre: delay >= 0.
  void ScheduleAfter(SimTime delay, EventTarget* target, uint32_t code,
                     uint64_t arg = 0);

  /// Runs a single event if one is pending; returns false when idle.
  bool Step();

  /// Runs all events with time <= `end`, then advances the clock to `end`.
  void RunUntil(SimTime end);

  /// Runs until the queue drains. `max_events` guards against runaway
  /// feedback loops (0 = unlimited).
  void Run(uint64_t max_events = 0);

  size_t pending() const { return queue_.size(); }
  uint64_t processed() const { return processed_; }

  /// Invoked after every fired event (empty = disabled). Used by the
  /// paranoid audit mode to re-check invariants between events; the hook
  /// must not schedule events of its own.
  void set_post_event_hook(std::function<void()> hook) {
    post_event_hook_ = std::move(hook);
  }

  /// Event-pool high-water mark (see EventQueue::pool_slots()).
  size_t pool_slots() const { return queue_.pool_slots(); }

  /// Pre-sizes the event queue for `events` simultaneously pending events
  /// (see EventQueue::Reserve()).
  void ReserveEvents(size_t events) { queue_.Reserve(events); }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  uint64_t processed_ = 0;
  std::function<void()> post_event_hook_;
};

}  // namespace dupnet::sim

#endif  // DUP_SIM_ENGINE_H_
