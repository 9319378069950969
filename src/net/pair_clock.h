#ifndef DUP_NET_PAIR_CLOCK_H_
#define DUP_NET_PAIR_CLOCK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/check.h"
#include "util/hugepage.h"

namespace dupnet::net {

/// Flat open-addressing map from an ordered (from, to) node pair to the
/// last scheduled delivery time on that overlay link — the FIFO pair clock
/// that models one TCP connection per link (OverlayNetwork::set_fifo_pairs).
///
/// Two vectors (keys + clocks), power-of-two capacity, linear probing: a
/// lookup is one mix and a short scan, with none of the per-node heap
/// traffic of the former `unordered_map`. Dead links are evicted whenever
/// the table reaches its load bound, which is *exactly*
/// semantics-preserving: an entry whose clock is `<= now` can never
/// influence a future `max(now' + latency, clock)` with `now' >= now`, so
/// dropping it returns the same delivery times as keeping it forever.
///
/// Sizing follows the live links, not the links ever seen: at the load
/// bound the dead links are deleted in place (backward-shift deletion, no
/// allocation), and the table doubles only when the survivors still fill
/// more than half of it. A run that touches millions of distinct links but
/// never has more than a few thousand in flight keeps a table sized by the
/// latter. The table never shrinks, so a Reserve()d capacity is a floor.
///
/// Keys are never the all-ones pattern (that would need both endpoints to
/// be the invalid node id), which serves as the empty-slot sentinel.
class PairClock {
 public:
  PairClock() { Clear(kInitialCapacity); }

  /// Applies the FIFO constraint for link `key`: returns
  /// max(proposed, link clock) and records the result as the link's new
  /// clock. `now` is only used to age out dead links when the table grows.
  sim::SimTime Advance(uint64_t key, sim::SimTime proposed, sim::SimTime now) {
    DUP_CHECK_NE(key, kEmpty);
    size_t mask = keys_.size() - 1;
    size_t i = Mix(key) & mask;
    while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask;
    if (keys_[i] == key) {
      const sim::SimTime advanced = std::max(proposed, clocks_[i]);
      clocks_[i] = advanced;
      return advanced;
    }
    if ((size_ + 1) * 10 >= keys_.size() * 7) {  // Load factor 0.7.
      EvictDead(now);
      if (size_ * 2 > keys_.size()) Rehash(keys_.size() * 2, now);
      mask = keys_.size() - 1;
      i = Mix(key) & mask;
      while (keys_[i] != kEmpty) i = (i + 1) & mask;  // Key known absent.
    }
    keys_[i] = key;
    clocks_[i] = proposed;
    ++size_;
    ++inserts_;
    return proposed;
  }

  /// Pre-sizes the table for `pairs` live links (steady-state prewarm).
  void Reserve(size_t pairs, sim::SimTime now) {
    size_t cap = kInitialCapacity;
    while (cap * 7 < pairs * 10) cap *= 2;
    if (cap > keys_.size()) Rehash(cap, now);
  }

  /// Links currently tracked (diagnostics).
  size_t size() const { return size_; }
  /// Table slots (the bytes/node accounting in docs/scaling.md).
  size_t capacity() const { return keys_.size(); }
  /// Fresh-key insertions ever performed by Advance(), counting a link
  /// again each time it returns after eviction. Still an upper bound on the
  /// links a replay of the same run ever holds at once, so
  /// Reserve(inserts() + 1) guarantees the replay never reaches the load
  /// bound, and so never evicts or grows (the two-run census in
  /// bench_micro).
  uint64_t inserts() const { return inserts_; }

 private:
  static constexpr uint64_t kEmpty = ~0ull;
  static constexpr size_t kInitialCapacity = 16;

  /// splitmix64 finalizer: PairKey packs two sequential ids, so the raw
  /// bits need scrambling before masking.
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
  }

  void Clear(size_t capacity) {
    util::ReserveWithHugePages(keys_, capacity);
    util::ReserveWithHugePages(clocks_, capacity);
    keys_.assign(capacity, kEmpty);
    clocks_.assign(capacity, 0.0);
    size_ = 0;
  }

  /// Deletes every dead link (clock <= now) in place. Knuth's Algorithm R:
  /// each deletion shifts the rest of its probe cluster back over the hole,
  /// so every survivor stays reachable from its home slot. A slot is
  /// re-examined after a deletion because a shifted entry may land in it;
  /// entries shift only from later in the cluster, and the cluster ends at
  /// an empty slot, so every slot is examined before the scan passes it.
  void EvictDead(sim::SimTime now) {
    const size_t mask = keys_.size() - 1;
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      while (keys_[slot] != kEmpty && clocks_[slot] <= now) {
        size_t hole = slot;
        for (size_t j = (hole + 1) & mask; keys_[j] != kEmpty;
             j = (j + 1) & mask) {
          // The entry at j may fill the hole only if its home slot does not
          // lie cyclically in (hole, j]; otherwise the move would put it
          // before its home.
          const size_t home = Mix(keys_[j]) & mask;
          const bool home_after_hole = hole <= j ? (hole < home && home <= j)
                                                 : (hole < home || home <= j);
          if (home_after_hole) continue;
          keys_[hole] = keys_[j];
          clocks_[hole] = clocks_[j];
          hole = j;
        }
        keys_[hole] = kEmpty;
        --size_;
      }
    }
  }

  void Rehash(size_t new_capacity, sim::SimTime now) {
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<sim::SimTime> old_clocks = std::move(clocks_);
    Clear(new_capacity);
    const size_t mask = keys_.size() - 1;
    for (size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      if (old_clocks[j] <= now) continue;  // Dead link (see class comment).
      size_t i = Mix(old_keys[j]) & mask;
      while (keys_[i] != kEmpty) i = (i + 1) & mask;
      keys_[i] = old_keys[j];
      clocks_[i] = old_clocks[j];
      ++size_;
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<sim::SimTime> clocks_;
  size_t size_ = 0;
  uint64_t inserts_ = 0;
};

}  // namespace dupnet::net

#endif  // DUP_NET_PAIR_CLOCK_H_
