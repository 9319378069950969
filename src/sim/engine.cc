#include "sim/engine.h"

#include "util/check.h"

namespace dupnet::sim {

void Engine::ScheduleAt(SimTime time, EventTarget* target, uint32_t code,
                        uint64_t arg) {
  DUP_DCHECK_GE(time, now_) << "ScheduleAt in the past";
  if (time < now_) time = now_;
  queue_.Push(time, target, code, arg);
}

void Engine::ScheduleAfter(SimTime delay, EventTarget* target, uint32_t code,
                           uint64_t arg) {
  DUP_CHECK_GE(delay, 0.0);
  queue_.Push(now_ + delay, target, code, arg);
}

bool Engine::Step() {
  if (queue_.empty()) return false;
  const Event e = queue_.Pop();
  now_ = e.time;
  ++processed_;
  // Let the *next* event's target start pulling its state into cache while
  // the current event's dispatch runs (see EventTarget::PrefetchSimEvent).
  queue_.StageNext();
  e.Fire();
  if (post_event_hook_) post_event_hook_();
  return true;
}

void Engine::RunUntil(SimTime end) {
  DUP_CHECK_GE(end, now_);
  while (!queue_.empty() && queue_.PeekTime() <= end) {
    Step();
  }
  now_ = end;
}

void Engine::Run(uint64_t max_events) {
  uint64_t executed = 0;
  while (Step()) {
    if (max_events != 0 && ++executed >= max_events) return;
  }
}

}  // namespace dupnet::sim
