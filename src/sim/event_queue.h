#ifndef DUP_SIM_EVENT_QUEUE_H_
#define DUP_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace dupnet::sim {

/// Simulated wall-clock time, in seconds.
using SimTime = double;

/// Receiver of typed events. Domain objects with recurring event kinds (the
/// overlay network's deliveries and retry timers, the drivers' workload
/// arrivals, publishes, churn and soft-state refresh ticks) implement this
/// once and dispatch on a small private `code`, so the simulation hot path
/// never boxes a closure. `arg` carries one small operand: a pooled-message
/// slot, a reliable-send sequence number, a node id, a key index.
class EventTarget {
 public:
  virtual ~EventTarget() = default;
  virtual void OnSimEvent(uint32_t code, uint64_t arg) = 0;

  /// Cache-warming hook: while one event fires, the engine announces the
  /// *next* pending typed event to its target, giving the target a chance
  /// to prefetch the state that dispatch will touch (see
  /// net::OverlayNetwork). Implementations must not mutate any simulation
  /// state. Default: no-op.
  virtual void PrefetchSimEvent(uint32_t code, uint64_t arg) {
    (void)code;
    (void)arg;
  }
};

/// One dequeued event: `target->OnSimEvent(code, arg)` at `time`. Events
/// with equal timestamps run in scheduling order (FIFO via the
/// monotonically increasing sequence number), which makes runs fully
/// deterministic for a fixed RNG seed.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  EventTarget* target = nullptr;  ///< Never null for a popped event.
  uint32_t code = 0;
  uint64_t arg = 0;

  /// Dispatches the payload.
  void Fire() const { target->OnSimEvent(code, arg); }
};
static_assert(std::is_trivially_copyable_v<Event>,
              "events are plain data: popping one copies five scalars");

/// Scheduler backing for EventQueue. Both produce the exact same total
/// order — ascending (time, seq) — so golden RunMetrics are bit-identical
/// under either; the heap is kept as the obviously-correct reference
/// implementation and as the comparison arm for bench_scale's
/// scheduler-only microbench.
enum class SchedulerKind {
  kHeap,      ///< Binary min-heap: O(log n) push/pop, the PR 3 engine.
  kCalendar,  ///< Calendar queue: amortised O(1) push/pop (the default).
};

/// Priority queue of events ordered by ascending (time, seq).
///
/// Payloads live in a slab recycled through a free list: once the slab has
/// grown to the simulation's peak in-flight event count, typed pushes and
/// pops perform zero allocations under both schedulers.
///
/// The calendar scheduler (default) splits pending events three ways:
///
///  - a near-future **lane**: a small array of (time, seq, slot) refs kept
///    sorted descending, so the next event to fire is always `lane_.back()`
///    and popping it is O(1);
///  - a **year** of `B` (power of two) width-`width_` timestamp buckets
///    covering `[year_start_, year_start_ + B * width_)`; each bucket is an
///    unsorted intrusive chain threaded through the payload slab
///    (`Node::next`), so pushing is O(1) and touches only the payload the
///    caller just wrote plus one bucket-head word;
///  - an **overflow** chain for events beyond the year, redistributed
///    lazily when the year drains (far-future spill: soft-state refresh
///    timers, retry backoffs).
///
/// A bucket is sorted only when it becomes the nearest non-empty one and is
/// moved wholesale into the lane. Classification is a single FP multiply:
/// `fidx = (time - year_start_) * inv_width_`, compared against the current
/// bucket cursor and `B`. `fidx` is monotone in `time`, so bucket order
/// refines timestamp order and the (time, seq) sort inside each bucket
/// yields the exact global FIFO total order — the heap and calendar pop
/// streams are identical, event for event.
///
/// `width_` is sized from the pop stream: every 64 pops the mean gap
/// between consecutive popped events is sampled, and a bucket spans 4 of
/// those gaps, so it holds ~4 events at the rate the queue is actually
/// drained. The pending set's own shape cannot mislead it: hop deliveries
/// 0.1 s out and soft-state timers hundreds of seconds out sit side by
/// side, but only their firing rate matters. Before the first full window
/// (a prefilled queue that has not popped yet) the width falls back to 4
/// mean gaps over the nearest three quarters of the sorted pending set. A
/// rebuild re-anchors the year at the earliest pending event and applies
/// the current width. Rebuilds trigger when the pending count outgrows 2*B
/// (the only allocating path: the bucket array doubles); when the year is
/// exhausted and the overflow chain must be redistributed; when one bucket
/// drains 128+ distinct-time events while the width in force is not the
/// pop stream's (never set from it, or more than twice its current value),
/// so a rebuild that leaves the width unchanged cannot re-arm it; and when
/// the lane has soaked up a quarter of all pending events (pushes behind
/// the cursor), at most once per pending/4 pushes, which keeps rebuild
/// work amortised O(1) per push. rebuilds() counts them all.
class EventQueue {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Selects the scheduler. Only legal while the queue is empty (the driver
  /// sets it once, before scheduling the first event).
  void set_scheduler(SchedulerKind kind);
  SchedulerKind scheduler() const { return kind_; }

  /// Enqueues an event for `target` (non-null) to fire at absolute time
  /// `time`, which must be finite (checked in every build). Steady-state
  /// allocation-free.
  void Push(SimTime time, EventTarget* target, uint32_t code,
            uint64_t arg = 0);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Pre: !empty(). Timestamp of the next event without removing it.
  /// Non-const: the calendar scheduler may need to surface the nearest
  /// bucket into the lane to answer.
  SimTime PeekTime();

  /// Pre: !empty(). Removes and returns the next event; its payload slot is
  /// recycled immediately.
  Event Pop();

  /// Pre-dispatch staging: announces the next pending event to its target
  /// via EventTarget::PrefetchSimEvent, so the target can warm the cache
  /// lines that dispatch will touch while the *current* event fires. No-op
  /// when the queue is empty.
  void StageNext();

  /// Total number of events ever pushed.
  uint64_t pushed() const { return next_seq_; }

  /// Calendar rebuilds so far (year re-anchors, bucket-array growth and
  /// width corrections, Reserve included). Read-only observable: a count
  /// that grows with every push rather than every year is a storm.
  uint64_t rebuilds() const { return rebuilds_; }

  /// Payload slots ever allocated — the pool's high-water mark (equals the
  /// peak number of simultaneously pending events). Benchmarks use this to
  /// verify the pool stops growing in steady state.
  size_t pool_slots() const { return pool_.size(); }

  /// Pre-sizes the payload slab, free list, lane/scratch buffers and the
  /// bucket array for `events` simultaneously pending events, so every
  /// typed push from the first event onward is allocation-free. Feed it a
  /// prior identical run's pool_slots() (the two-run census in bench_micro)
  /// or an upper bound.
  void Reserve(size_t events);

 private:
  static constexpr uint32_t kNilSlot = 0xffffffffu;

  /// Lane/heap element. POD on purpose: sorts and sifts move 24-byte
  /// values and the comparators only ever read live scalars.
  struct Ref {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  /// Pooled payload. `time`/`seq` are duplicated here so bucket chains can
  /// be rebuilt from slots alone; `next` threads the intrusive bucket and
  /// overflow chains. Bucket-chain walks touch one payload per pending
  /// event, so its size is pinned below.
  struct Node {
    EventTarget* target = nullptr;
    uint64_t arg = 0;
    SimTime time = 0.0;
    uint64_t seq = 0;
    uint32_t code = 0;
    uint32_t next = kNilSlot;
  };
  static_assert(sizeof(Node) == 40, "pooled payload is five 8-byte words");

  struct Later {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Ref& a, const Ref& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  static size_t NextPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  /// Takes a recycled payload slot, or grows the slab (and keeps the
  /// lane/scratch buffers large enough to hold every live payload, so
  /// calendar rebuilds stay allocation-free once the pool stops growing).
  uint32_t AcquireSlot();
  /// Stamps (time, seq) into the payload and routes it to the active
  /// scheduler.
  void Enqueue(SimTime time, uint32_t slot);
  /// Calendar: files one ref into lane, current-year bucket or overflow.
  void Place(const Ref& ref);
  /// Calendar: sorted insert into the near-future lane (descending order).
  void LaneInsert(const Ref& ref);
  /// Calendar: ensures the lane holds the next event (moves the nearest
  /// non-empty bucket in, advancing years over the overflow chain as
  /// needed). Post: lane non-empty unless the queue is empty.
  void Settle();
  /// Calendar: drains bucket `b`'s chain into the (empty) lane and sorts.
  void MoveBucketToLane(size_t b);
  /// Calendar: gathers every pending event into scratch_, re-anchors the
  /// year at the earliest one, applies the pop-stream width (or the
  /// pending-set fallback, see ComputeWidth) and redistributes.
  /// Allocation-free unless `num_buckets` exceeds the current array.
  void Rebuild(size_t num_buckets);
  /// Calendar: collects lane + buckets + overflow into scratch_ (cleared
  /// first) and empties them.
  void GatherAll();
  /// Calendar fallback before the first full pop window: re-derives width_
  /// from ascending-sorted scratch_ (4 mean gaps up to the 75th-percentile
  /// event); keeps the old width when the span is degenerate (all-equal
  /// timestamps).
  void ComputeWidth();
  /// Calendar: feeds one popped time into the pop-gap window; every 64
  /// gaps it refreshes pop_width_ (4 x the window's mean gap, when > 0).
  void NotePop(SimTime time);

  SchedulerKind kind_ = SchedulerKind::kCalendar;
  size_t size_ = 0;  ///< Pending events, both schedulers.

  std::vector<Ref> heap_;  ///< kHeap: binary min-heap by (time, seq).

  std::vector<Ref> lane_;  ///< kCalendar: sorted descending; pop from back.
  std::vector<uint32_t> bucket_head_;  ///< kCalendar: intrusive chain heads.
  uint32_t overflow_head_ = kNilSlot;  ///< kCalendar: beyond-year chain.
  size_t overflow_count_ = 0;
  size_t in_year_ = 0;      ///< Events currently filed in buckets.
  size_t cur_bucket_ = 0;   ///< Buckets below this are drained into the lane.
  SimTime year_start_ = 0.0;
  double width_ = 1.0;      ///< Bucket width in sim-seconds (> 0).
  double inv_width_ = 1.0;
  bool anchored_ = false;   ///< year_start_ valid (first push anchors).
  double pop_width_ = 0.0;  ///< Width from the last pop window; 0 = none yet.
  SimTime window_start_ = 0.0;  ///< Time of the current window's first pop.
  uint32_t window_pops_ = 0;    ///< Pops in the current window so far.
  uint64_t rebuilds_ = 0;
  uint64_t rebuild_seq_ = 0;  ///< next_seq_ at the last rebuild.
  std::vector<Ref> scratch_;  ///< Rebuild staging buffer.

  std::vector<Node> pool_;         ///< Payload slab, indexed by Ref::slot.
  std::vector<uint32_t> free_slots_;  ///< Recycled slab indices.
  uint64_t next_seq_ = 0;
};

}  // namespace dupnet::sim

#endif  // DUP_SIM_EVENT_QUEUE_H_
