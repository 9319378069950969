#ifndef DUP_CORE_NODE_REGISTRY_H_
#define DUP_CORE_NODE_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/hugepage.h"
#include "util/types.h"

namespace dupnet::core {

/// Maps sparse NodeIds onto dense storage slots so per-node protocol state
/// can live in flat arrays instead of node-keyed hash maps.
///
/// Ids are issued monotonically (0..n-1 at startup, fresh ids under churn)
/// and never reused; slots ARE reused, recycled through a LIFO free list
/// when a node leaves. Two properties make the mapping safe:
///
///  * `slot_of_id_` keeps the id -> slot mapping even after Release, so
///    state slabs can still reach a departed node's slot (soft state
///    legitimately outlives the node — see audit::InvariantChecker's
///    dup-departed-state check) and erase it by id.
///  * every slot records its current owner, so a slab entry left behind by
///    a departed node can never be mistaken for the state of the node that
///    recycled the slot (NodeSlab compares owners on every access).
///
/// Memory: 4 bytes per id ever issued (the raw mapping) plus one liveness
/// bit per id and 4 bytes per slot high-water (the owner column).
///
/// Liveness is answered by the packed `live_bits_` column, not by chasing
/// id -> slot -> owner: the two-array confirmation walk costs two
/// *dependent* cache misses per lookup, and Contains/SlotOf sit on the
/// per-event hot path (every workload arrival liveness-checks its node).
/// The bitset is 1 bit per id — at 10^6 nodes it is 128 KiB, small enough
/// to stay cache-resident while the 4-byte columns stride DRAM. Invariant:
/// bit(id) set  <=>  slot_of_id_[id] holds a slot whose owner is `id`.
class NodeRegistry {
 public:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Assigns a slot (recycled if one is free) to a brand-new id.
  /// Pre: `id` is valid and not currently registered.
  uint32_t Acquire(NodeId id) {
    DUP_CHECK_NE(id, kInvalidNode);
    DUP_CHECK(!Contains(id)) << "id " << id << " already registered";
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(owner_of_slot_.size());
      if (owner_of_slot_.size() == owner_of_slot_.capacity()) {
        util::ReserveWithHugePages(
            owner_of_slot_, std::max<size_t>(16, 2 * owner_of_slot_.size()));
      }
      owner_of_slot_.push_back(kInvalidNode);
    }
    if (slot_of_id_.size() <= id) {
      util::ReserveWithHugePages(
          slot_of_id_,
          std::max(static_cast<size_t>(id) + 1, 2 * slot_of_id_.size()));
      slot_of_id_.resize(static_cast<size_t>(id) + 1, kNoSlot);
      live_bits_.resize((slot_of_id_.size() + 63) / 64, 0);
    }
    slot_of_id_[id] = slot;
    owner_of_slot_[slot] = id;
    live_bits_[id >> 6] |= uint64_t{1} << (id & 63);
    ++live_;
    return slot;
  }

  /// Frees `id`'s slot for recycling. The raw id -> slot mapping survives
  /// (ids are never reused) so slabs can still locate lingering state.
  /// Pre: Contains(id).
  void Release(NodeId id) {
    const uint32_t slot = SlotOf(id);
    DUP_CHECK_NE(slot, kNoSlot) << "id " << id << " not registered";
    owner_of_slot_[slot] = kInvalidNode;
    live_bits_[id >> 6] &= ~(uint64_t{1} << (id & 63));
    free_slots_.push_back(slot);
    --live_;
  }

  bool Contains(NodeId id) const {
    return id < slot_of_id_.size() &&
           ((live_bits_[id >> 6] >> (id & 63)) & 1u) != 0;
  }

  /// The slot currently owned by `id`; kNoSlot when `id` is not live.
  /// The live bit certifies slot_of_id_[id] (see class comment), so the
  /// lookup is one cache-resident bit probe plus one array read — no
  /// dependent owner confirmation.
  uint32_t SlotOf(NodeId id) const {
    if (!Contains(id)) return kNoSlot;
    return slot_of_id_[id];
  }

  /// The slot last mapped to `id`, live or released; kNoSlot when `id` was
  /// never registered. Slab erase/introspection of departed nodes.
  uint32_t RawSlotOf(NodeId id) const {
    return id < slot_of_id_.size() ? slot_of_id_[id] : kNoSlot;
  }

  /// The live owner of `slot`; kInvalidNode while the slot is free.
  NodeId OwnerOfSlot(uint32_t slot) const {
    DUP_CHECK_LT(slot, owner_of_slot_.size());
    return owner_of_slot_[slot];
  }

  /// Currently registered ids.
  size_t live_count() const { return live_; }

  /// One past the highest id ever registered: the bound of an id-order
  /// walk over the raw id -> slot mapping (NodeSlab::ForEachById).
  size_t id_bound() const { return slot_of_id_.size(); }

  /// Slots ever allocated (the slab high-water mark all NodeSlabs track).
  size_t slot_count() const { return owner_of_slot_.size(); }

  /// Pre-sizes the id map and slot columns (avoids growth reallocation in
  /// steady state; purely an optimisation).
  void Reserve(size_t max_id, size_t slots) {
    util::ReserveWithHugePages(slot_of_id_, max_id);
    live_bits_.reserve((max_id + 63) / 64);
    util::ReserveWithHugePages(owner_of_slot_, slots);
    free_slots_.reserve(slots);
  }

 private:
  std::vector<uint32_t> slot_of_id_;   ///< id -> slot, never un-mapped.
  std::vector<uint64_t> live_bits_;    ///< 1 bit per id: currently live?
  std::vector<NodeId> owner_of_slot_;  ///< slot -> live owner id.
  std::vector<uint32_t> free_slots_;   ///< LIFO recycled slots.
  size_t live_ = 0;
};

/// Flat per-node state storage indexed by NodeRegistry slots: the dense-id
/// replacement for `unordered_map<NodeId, T>`. Entries are tagged with the
/// owning id, so
///
///  * a recycled slot never aliases: accessing the new owner's state finds
///    the stale tag and re-initialises in place (capacity preserved),
///  * state erased by id after the node left the registry is still found
///    through the raw id -> slot mapping, and
///  * iteration surfaces departed-but-unerased state exactly like the old
///    maps did (soft state lingers until explicitly erased), which the
///    invariant auditor's departed-state check relies on.
///
/// `GetOrInit` passes recycled/new entries through the caller's `reinit`
/// callback instead of copy-assigning a fresh T, so vector capacities
/// inside T survive slot reuse — steady-state access allocates nothing.
template <typename T>
class NodeSlab {
 public:
  /// State of `id`, creating it if absent. For live ids this is the slab
  /// slot (re-initialised via `reinit(T&)` when newly claimed); for
  /// departed ids it returns the lingering state, which must still exist.
  template <typename Reinit>
  T& GetOrInit(const NodeRegistry& registry, NodeId id, Reinit&& reinit) {
    return entries_[SlotOrInit(registry, id, std::forward<Reinit>(reinit))]
        .value;
  }

  /// GetOrInit returning the slab slot instead of the value, for callers
  /// that key parallel side storage by slot (e.g. TreeProtocolBase's
  /// tracker-stamp arena). Pair with AtSlot.
  template <typename Reinit>
  uint32_t SlotOrInit(const NodeRegistry& registry, NodeId id,
                      Reinit&& reinit) {
    const uint32_t slot = registry.SlotOf(id);
    if (slot != kNoSlotLocal) {
      if (entries_.size() <= slot) {
        util::ResizeWithHugePages(entries_, registry.slot_count());
      }
      Entry& entry = entries_[slot];
      if (!entry.live || entry.owner != id) {
        entry.owner = id;
        entry.live = true;
        reinit(entry.value);
      }
      return slot;
    }
    // Departed node: only lingering (not yet erased) state is reachable.
    const uint32_t raw = registry.RawSlotOf(id);
    DUP_CHECK(raw != kNoSlotLocal && raw < entries_.size() &&
              entries_[raw].live && entries_[raw].owner == id)
        << "no state for departed node " << id;
    return raw;
  }

  /// Value at a slot obtained from SlotOrInit. Pre: the slot is live.
  T& AtSlot(uint32_t slot) { return entries_[slot].value; }
  const T& AtSlot(uint32_t slot) const { return entries_[slot].value; }

  /// State of `id` if present (live, or departed-but-unerased); else null.
  const T* Find(const NodeRegistry& registry, NodeId id) const {
    return const_cast<NodeSlab*>(this)->FindRaw(registry, id);
  }
  T* Find(const NodeRegistry& registry, NodeId id) {
    return FindRaw(registry, id);
  }

  /// Drops `id`'s state; returns false when absent. The entry's storage
  /// (and T's internal capacity) stays in the slab for the next owner.
  bool Erase(const NodeRegistry& registry, NodeId id) {
    T* value = FindRaw(registry, id);
    if (value == nullptr) return false;
    const uint32_t slot = registry.RawSlotOf(id);
    entries_[slot].live = false;
    return true;
  }

  /// Visits every live entry as fn(owner, value), in slot order, which
  /// churn scrambles: for callers whose result does not depend on order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      if (entry.live) fn(entry.owner, entry.value);
    }
  }

  /// Visits exactly ForEach's entries as fn(owner, value), in ascending id
  /// order and without allocating: walks the registry's id -> slot mapping,
  /// which also reaches a departed id's lingering state. An entry tagged
  /// with another id (its slot was recycled) is skipped here and visited
  /// under its owner.
  template <typename Fn>
  void ForEachById(const NodeRegistry& registry, Fn&& fn) const {
    const size_t ids = registry.id_bound();
    for (size_t id = 0; id < ids; ++id) {
      const uint32_t slot = registry.RawSlotOf(static_cast<NodeId>(id));
      if (slot >= entries_.size()) continue;
      const Entry& entry = entries_[slot];
      if (entry.live && entry.owner == id) fn(entry.owner, entry.value);
    }
  }

  /// Entries currently live (diagnostics).
  size_t live_entries() const {
    size_t n = 0;
    for (const Entry& entry : entries_) n += entry.live ? 1 : 0;
    return n;
  }

  /// Pre-sizes the slab to the registry's current slot count.
  void Reserve(const NodeRegistry& registry) {
    if (entries_.size() < registry.slot_count()) {
      util::ResizeWithHugePages(entries_, registry.slot_count());
    }
  }

 private:
  static constexpr uint32_t kNoSlotLocal = NodeRegistry::kNoSlot;

  struct Entry {
    NodeId owner = kInvalidNode;
    bool live = false;
    T value{};
  };

  T* FindRaw(const NodeRegistry& registry, NodeId id) {
    const uint32_t slot = registry.RawSlotOf(id);
    if (slot == kNoSlotLocal || slot >= entries_.size()) return nullptr;
    Entry& entry = entries_[slot];
    if (!entry.live || entry.owner != id) return nullptr;
    return &entry.value;
  }

  std::vector<Entry> entries_;  ///< Indexed by registry slot.
};

/// Hot/cold split variant of NodeSlab: the fields every event dispatch
/// touches (`Hot`) pack together with the owner tag in one contiguous
/// array — ideally one cache line per entry — while the bulky state only
/// branch operations need (`Cold`: subscriber lists, demand tables) lives
/// in a parallel array the hot path never strides over. Aliasing,
/// lingering-state and capacity-preserving-reinit semantics are exactly
/// NodeSlab's; both halves always share one slot index.
///
/// Access is slot-first by design: resolve the slot once via SlotOrInit /
/// FindSlot, then read HotAt(slot) and only touch ColdAt(slot) on the
/// paths that need it.
template <typename Hot, typename Cold>
class SplitNodeSlab {
  struct HotEntry {
    NodeId owner = kInvalidNode;
    bool live = false;
    Hot value{};
  };

 public:
  static constexpr uint32_t kNoSlot = NodeRegistry::kNoSlot;
  /// Bytes per slot of the hot array (the layout gates in the protocols).
  static constexpr size_t kHotEntryBytes = sizeof(HotEntry);

  /// Slot of `id`'s state, creating it if absent (recycled/new entries are
  /// passed through `reinit(Hot&, Cold&)` in place, preserving Cold's
  /// internal capacities). For departed ids the lingering state's slot is
  /// returned, which must still exist.
  template <typename Reinit>
  uint32_t SlotOrInit(const NodeRegistry& registry, NodeId id,
                      Reinit&& reinit) {
    const uint32_t slot = registry.SlotOf(id);
    if (slot != kNoSlot) {
      if (hot_.size() <= slot) {
        util::ResizeWithHugePages(hot_, registry.slot_count());
        util::ResizeWithHugePages(cold_, registry.slot_count());
      }
      HotEntry& entry = hot_[slot];
      if (!entry.live || entry.owner != id) {
        entry.owner = id;
        entry.live = true;
        reinit(entry.value, cold_[slot]);
      }
      return slot;
    }
    const uint32_t raw = registry.RawSlotOf(id);
    DUP_CHECK(raw != kNoSlot && raw < hot_.size() && hot_[raw].live &&
              hot_[raw].owner == id)
        << "no state for departed node " << id;
    return raw;
  }

  /// Slot of `id`'s state if present (live, or departed-but-unerased);
  /// kNoSlot otherwise.
  uint32_t FindSlot(const NodeRegistry& registry, NodeId id) const {
    const uint32_t raw = registry.RawSlotOf(id);
    if (raw == kNoSlot || raw >= hot_.size()) return kNoSlot;
    const HotEntry& entry = hot_[raw];
    if (!entry.live || entry.owner != id) return kNoSlot;
    return raw;
  }

  Hot& HotAt(uint32_t slot) { return hot_[slot].value; }
  const Hot& HotAt(uint32_t slot) const { return hot_[slot].value; }
  Cold& ColdAt(uint32_t slot) { return cold_[slot]; }
  const Cold& ColdAt(uint32_t slot) const { return cold_[slot]; }

  /// Drops `id`'s state; returns false when absent. Storage (and Cold's
  /// internal capacity) stays in the slab for the next owner.
  bool Erase(const NodeRegistry& registry, NodeId id) {
    const uint32_t slot = FindSlot(registry, id);
    if (slot == kNoSlot) return false;
    hot_[slot].live = false;
    return true;
  }

  /// Visits every live entry as fn(owner, hot, cold), in slot order, which
  /// churn scrambles: for callers whose result does not depend on order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t slot = 0; slot < hot_.size(); ++slot) {
      const HotEntry& entry = hot_[slot];
      if (entry.live) fn(entry.owner, entry.value, cold_[slot]);
    }
  }

  /// ForEach's entries in ascending id order, allocation-free (see
  /// NodeSlab::ForEachById).
  template <typename Fn>
  void ForEachById(const NodeRegistry& registry, Fn&& fn) const {
    const size_t ids = registry.id_bound();
    for (size_t id = 0; id < ids; ++id) {
      const uint32_t slot = registry.RawSlotOf(static_cast<NodeId>(id));
      if (slot >= hot_.size()) continue;
      const HotEntry& entry = hot_[slot];
      if (entry.live && entry.owner == id) {
        fn(entry.owner, entry.value, cold_[slot]);
      }
    }
  }

  /// Entries currently live (diagnostics).
  size_t live_entries() const {
    size_t n = 0;
    for (const HotEntry& entry : hot_) n += entry.live ? 1 : 0;
    return n;
  }

  /// Pre-sizes both halves to the registry's current slot count.
  void Reserve(const NodeRegistry& registry) {
    if (hot_.size() < registry.slot_count()) {
      util::ResizeWithHugePages(hot_, registry.slot_count());
      util::ResizeWithHugePages(cold_, registry.slot_count());
    }
  }

 private:
  std::vector<HotEntry> hot_;  ///< Indexed by registry slot.
  std::vector<Cold> cold_;     ///< Parallel to hot_.
};

}  // namespace dupnet::core

#endif  // DUP_CORE_NODE_REGISTRY_H_
