#include "sim/event_queue.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/hugepage.h"

namespace dupnet::sim {

namespace {
constexpr size_t kMinBuckets = 16;
/// A bucket spans this many mean inter-event gaps, so it holds ~4 events.
constexpr double kGapsPerBucket = 4.0;
/// Pops per width sample: the mean gap is taken over this many consecutive
/// pop-to-pop intervals.
constexpr uint32_t kPopWindow = 64;
/// Draining this many events out of ONE bucket (the width targets ~4) means
/// the width in force is stale; Settle re-derives it (see there).
constexpr size_t kStaleWidthBucketLen = 128;
/// Lane re-anchoring fires only once the lane holds at least this many
/// events AND at least a quarter of everything pending (see Enqueue).
constexpr size_t kLaneRebuildMin = 32;
}  // namespace

EventQueue::EventQueue() : bucket_head_(kMinBuckets, kNilSlot) {}

void EventQueue::set_scheduler(SchedulerKind kind) {
  DUP_CHECK(size_ == 0) << "scheduler change with " << size_
                        << " events pending";
  kind_ = kind;
}

uint32_t EventQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(pool_.size());
  pool_.emplace_back();
  // Rebuilds stage at most one Ref per live payload, so syncing these
  // capacities here keeps LaneInsert/GatherAll allocation-free forever
  // after the pool's high-water mark.
  if (lane_.capacity() < pool_.capacity()) lane_.reserve(pool_.capacity());
  if (scratch_.capacity() < pool_.capacity()) {
    scratch_.reserve(pool_.capacity());
  }
  return slot;
}

void EventQueue::Push(SimTime time, EventTarget* target, uint32_t code,
                      uint64_t arg) {
  DUP_CHECK(target != nullptr);
  uint32_t slot = AcquireSlot();
  Node& node = pool_[slot];
  node.target = target;
  node.code = code;
  node.arg = arg;
  Enqueue(time, slot);
}

void EventQueue::Enqueue(SimTime time, uint32_t slot) {
  // A NaN time compares false against everything, so it would fire out of
  // (time, seq) order, and the bucket index cast in Place would be
  // undefined; an infinite one would park the clock at +inf.
  DUP_CHECK(std::isfinite(time)) << "non-finite event time " << time;
  uint64_t seq = next_seq_++;
  Node& node = pool_[slot];
  node.time = time;
  node.seq = seq;
  node.next = kNilSlot;
  ++size_;
  if (kind_ == SchedulerKind::kHeap) {
    heap_.push_back(Ref{time, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return;
  }
  if (!anchored_) {
    year_start_ = time;
    cur_bucket_ = 0;
    anchored_ = true;
  }
  Place(Ref{time, seq, slot});
  if (size_ > 2 * bucket_head_.size()) {
    // Load factor above 2 events/bucket: double the year (the only
    // allocating path, and unreachable after Reserve(peak)). Sizing to
    // 2x the pending set keeps the year long relative to event hold
    // times, which is what amortises the year-end redistribution.
    Rebuild(NextPow2(std::max(kMinBuckets, 2 * size_)));
  } else if (lane_.size() >= kLaneRebuildMin && lane_.size() * 4 >= size_ &&
             (next_seq_ - rebuild_seq_) * 4 >= size_) {
    // The lane, meant to hold one bucket's worth, has soaked up a quarter
    // of everything pending: pushes keep landing behind the cursor (a
    // prefill in random order, a burst into the current bucket), each a
    // sorted insert that shifts the lane. Re-anchoring at the earliest
    // pending event with the cursor at bucket 0 turns such pushes back
    // into O(1) chain pushes. At least a quarter of the pending count in
    // pushes separates two rebuilds, so their O(pending) cost stays
    // amortised O(1) per push however often the lane refills.
    Rebuild(bucket_head_.size());
  }
}

void EventQueue::Place(const Ref& ref) {
  // fidx is monotone in ref.time, so bucket order refines timestamp order;
  // comparing the same fidx against both boundaries keeps lane/bucket/
  // overflow classification consistent with itself under FP rounding.
  double fidx = (ref.time - year_start_) * inv_width_;
  if (fidx < static_cast<double>(cur_bucket_)) {
    LaneInsert(ref);
  } else if (fidx >= static_cast<double>(bucket_head_.size())) {
    Node& node = pool_[ref.slot];
    node.next = overflow_head_;
    overflow_head_ = ref.slot;
    ++overflow_count_;
  } else {
    size_t b = static_cast<size_t>(fidx);
    Node& node = pool_[ref.slot];
    node.next = bucket_head_[b];
    bucket_head_[b] = ref.slot;
    ++in_year_;
  }
}

void EventQueue::LaneInsert(const Ref& ref) {
  // Sorted descending; seq values are unique so lower_bound lands exactly
  // between strictly-later and strictly-earlier events, preserving FIFO.
  auto pos = std::lower_bound(lane_.begin(), lane_.end(), ref, Later{});
  lane_.insert(pos, ref);
}

void EventQueue::Settle() {
  bool rewidthed = false;
  while (lane_.empty()) {
    if (in_year_ > 0) {
      size_t b = cur_bucket_;
      while (b < bucket_head_.size() && bucket_head_[b] == kNilSlot) ++b;
      DUP_CHECK_LT(b, bucket_head_.size());
      MoveBucketToLane(b);
      cur_bucket_ = b + 1;
      if (!rewidthed && lane_.size() >= kStaleWidthBucketLen &&
          lane_.front().time > lane_.back().time &&
          (pop_width_ == 0.0 || 2.0 * pop_width_ < width_)) {
        // One bucket just yielded tens of times the ~4 events the width
        // targets, and the width in force is not the pop stream's: it was
        // sized before the first full pop window (a mass-scheduling
        // prefill grows the set under the nose of an early estimate), or
        // the pop rate has since more than doubled. Re-derive it, or
        // bucket sorts and lane inserts degrade to O(bucket-len) per
        // operation. Ties are exempt (no width separates equal
        // timestamps), and one correction per Settle guarantees progress.
        // A burst under a current pop-stream width does not qualify: the
        // rebuild would reproduce the same width and the same front
        // bucket, so the trigger must not re-arm on it.
        rewidthed = true;
        Rebuild(bucket_head_.size());
      }
    } else if (overflow_count_ > 0) {
      // Year exhausted: re-anchor at the earliest far-future event and
      // redistribute the overflow chain (lazy spill).
      Rebuild(bucket_head_.size());
    } else {
      return;  // Queue empty.
    }
  }
}

void EventQueue::MoveBucketToLane(size_t b) {
  uint32_t slot = bucket_head_[b];
  bucket_head_[b] = kNilSlot;
  size_t moved = 0;
  while (slot != kNilSlot) {
    const Node& node = pool_[slot];
    lane_.push_back(Ref{node.time, node.seq, slot});
    slot = node.next;
    ++moved;
  }
  in_year_ -= moved;
  std::sort(lane_.begin(), lane_.end(), Later{});
}

void EventQueue::GatherAll() {
  scratch_.clear();
  scratch_.insert(scratch_.end(), lane_.begin(), lane_.end());
  lane_.clear();
  if (in_year_ > 0) {
    for (uint32_t& head : bucket_head_) {
      uint32_t slot = head;
      head = kNilSlot;
      while (slot != kNilSlot) {
        const Node& node = pool_[slot];
        scratch_.push_back(Ref{node.time, node.seq, slot});
        slot = node.next;
      }
    }
    in_year_ = 0;
  }
  uint32_t slot = overflow_head_;
  overflow_head_ = kNilSlot;
  overflow_count_ = 0;
  while (slot != kNilSlot) {
    const Node& node = pool_[slot];
    scratch_.push_back(Ref{node.time, node.seq, slot});
    slot = node.next;
  }
}

void EventQueue::NotePop(SimTime time) {
  if (window_pops_ == kPopWindow) {
    const double gap = (time - window_start_) / kPopWindow;
    if (gap > 0.0) pop_width_ = kGapsPerBucket * gap;
    window_pops_ = 0;
  }
  if (window_pops_++ == 0) window_start_ = time;
}

void EventQueue::ComputeWidth() {
  size_t n = scratch_.size();
  if (n < 2) return;
  size_t k = std::max<size_t>(1, (3 * n) / 4);
  double gap = (scratch_[k].time - scratch_[0].time) / static_cast<double>(k);
  if (gap > 0.0) {
    // Mean inter-event gap over the nearest three quarters of the pending
    // set. Only a stand-in until the first pop window closes: a two-mode
    // set (hop deliveries next to far-out soft-state timers) puts its 75th
    // percentile in the far mode and makes buckets hundreds of times too
    // wide.
    width_ = kGapsPerBucket * gap;
    inv_width_ = 1.0 / width_;
  }
}

void EventQueue::Rebuild(size_t num_buckets) {
  ++rebuilds_;
  rebuild_seq_ = next_seq_;
  GatherAll();
  if (bucket_head_.size() != num_buckets) {
    util::ReserveWithHugePages(bucket_head_, num_buckets);
    bucket_head_.assign(num_buckets, kNilSlot);
  }
  cur_bucket_ = 0;
  if (scratch_.empty()) {
    anchored_ = false;
    year_start_ = 0.0;
    return;
  }
  anchored_ = true;
  if (pop_width_ > 0.0) {
    // Anchoring at the earliest event with the cursor at bucket 0 files
    // every event into a bucket or the overflow chain, so placement order
    // is free and no sort is needed.
    width_ = pop_width_;
    inv_width_ = 1.0 / width_;
    year_start_ = std::min_element(scratch_.begin(), scratch_.end(),
                                   Earlier{})->time;
  } else {
    std::sort(scratch_.begin(), scratch_.end(), Earlier{});
    ComputeWidth();
    year_start_ = scratch_.front().time;
  }
  for (const Ref& ref : scratch_) Place(ref);
  scratch_.clear();
}

SimTime EventQueue::PeekTime() {
  DUP_CHECK(size_ > 0);
  if (kind_ == SchedulerKind::kHeap) return heap_.front().time;
  Settle();
  return lane_.back().time;
}

Event EventQueue::Pop() {
  DUP_CHECK(size_ > 0);
  Ref ref;
  if (kind_ == SchedulerKind::kHeap) {
    // pop_heap only shuffles trivially-copyable Refs; payloads never take
    // part in comparator calls.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    ref = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) __builtin_prefetch(&pool_[heap_.front().slot]);
  } else {
    Settle();
    ref = lane_.back();
    lane_.pop_back();
    if (!lane_.empty()) __builtin_prefetch(&pool_[lane_.back().slot]);
    NotePop(ref.time);
  }
  --size_;
  if (size_ == 0) {
    // Fully drained: the next push re-anchors the year at its own time.
    anchored_ = false;
    cur_bucket_ = 0;
  }

  const Node& node = pool_[ref.slot];
  free_slots_.push_back(ref.slot);
  return Event{ref.time, ref.seq, node.target, node.code, node.arg};
}

void EventQueue::StageNext() {
  const Node* node = nullptr;
  if (kind_ == SchedulerKind::kHeap) {
    if (heap_.empty()) return;
    node = &pool_[heap_.front().slot];
  } else {
    if (size_ == 0) return;
    Settle();
    node = &pool_[lane_.back().slot];
  }
  node->target->PrefetchSimEvent(node->code, node->arg);
}

void EventQueue::Reserve(size_t events) {
  util::ReserveWithHugePages(heap_, events);
  util::ReserveWithHugePages(pool_, events);
  free_slots_.reserve(events);
  util::ReserveWithHugePages(lane_, std::max(events, pool_.capacity()));
  util::ReserveWithHugePages(scratch_, std::max(events, pool_.capacity()));
  size_t target = NextPow2(std::max(kMinBuckets, 2 * events));
  if (target > bucket_head_.size()) Rebuild(target);
}

}  // namespace dupnet::sim
