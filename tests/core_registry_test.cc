#include "core/node_registry.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"
#include "util/types.h"

namespace dupnet::core {
namespace {

TEST(NodeRegistryTest, AcquireAssignsDenseSlotsFromZero) {
  NodeRegistry registry;
  EXPECT_EQ(registry.Acquire(10), 0u);
  EXPECT_EQ(registry.Acquire(20), 1u);
  EXPECT_EQ(registry.Acquire(5), 2u);
  EXPECT_EQ(registry.live_count(), 3u);
  EXPECT_EQ(registry.slot_count(), 3u);
  EXPECT_TRUE(registry.Contains(10));
  EXPECT_FALSE(registry.Contains(11));
  EXPECT_EQ(registry.SlotOf(20), 1u);
  EXPECT_EQ(registry.OwnerOfSlot(2), 5u);
}

TEST(NodeRegistryTest, ReleaseRecyclesSlotLifo) {
  NodeRegistry registry;
  registry.Acquire(1);
  const uint32_t slot = registry.Acquire(2);
  registry.Acquire(3);
  registry.Release(2);
  EXPECT_FALSE(registry.Contains(2));
  EXPECT_EQ(registry.live_count(), 2u);
  // The freed slot is handed to the next newcomer; no new slot grows.
  EXPECT_EQ(registry.Acquire(4), slot);
  EXPECT_EQ(registry.slot_count(), 3u);
  EXPECT_EQ(registry.OwnerOfSlot(slot), 4u);
}

TEST(NodeRegistryTest, RawSlotSurvivesReleaseUntilRecycled) {
  NodeRegistry registry;
  const uint32_t slot = registry.Acquire(7);
  registry.Release(7);
  // Live lookup fails, but the raw mapping still points at the old slot
  // (how slabs erase/introspect a departed node's lingering state).
  EXPECT_EQ(registry.SlotOf(7), NodeRegistry::kNoSlot);
  EXPECT_EQ(registry.RawSlotOf(7), slot);
  // After recycling, the raw slot still resolves but its owner differs —
  // exactly the alias check slabs perform.
  registry.Acquire(8);
  EXPECT_EQ(registry.RawSlotOf(7), slot);
  EXPECT_NE(registry.OwnerOfSlot(slot), 7u);
}

TEST(NodeSlabTest, LingeringStateReadableUntilSlotReused) {
  NodeRegistry registry;
  NodeSlab<int> slab;
  registry.Acquire(3);
  slab.GetOrInit(registry, 3, [](int& v) { v = 33; }) = 42;
  registry.Release(3);
  // Departed but not erased: the state lingers (soft state outlives the
  // node; the audit layer's departed-state check reads exactly this).
  ASSERT_NE(slab.Find(registry, 3), nullptr);
  EXPECT_EQ(*slab.Find(registry, 3), 42);
  // A newcomer recycles the slot: the lingering entry is re-initialised
  // for the new owner and the dead id no longer resolves to it.
  registry.Acquire(9);
  bool reinit_ran = false;
  const int value = slab.GetOrInit(registry, 9, [&](int& v) {
    v = 99;
    reinit_ran = true;
  });
  EXPECT_TRUE(reinit_ran);
  EXPECT_EQ(value, 99);
  EXPECT_EQ(slab.Find(registry, 3), nullptr);
}

TEST(NodeSlabTest, EraseOfDepartedIdWorksThroughRawMapping) {
  NodeRegistry registry;
  NodeSlab<int> slab;
  registry.Acquire(5);
  slab.GetOrInit(registry, 5, [](int& v) { v = 5; });
  registry.Release(5);
  EXPECT_TRUE(slab.Erase(registry, 5));
  EXPECT_EQ(slab.Find(registry, 5), nullptr);
  EXPECT_FALSE(slab.Erase(registry, 5));  // Already gone.
}

// Churn-heavy property test: thousands of random acquire/release/erase
// rounds against a reference model. The pinned properties are the two the
// whole flat-state design rests on (docs/scaling.md):
//   * an id's slot is stable for its entire live span, and
//   * a recycled slot never aliases — a dead id can never observe (or
//     corrupt) the state of the node that inherited its slot, and a live
//     node always reads back exactly the value written for it.
TEST(NodeRegistryPropertyTest, ChurnNeverAliasesAndKeepsIdsStable) {
  util::Rng rng(20260808);
  NodeRegistry registry;
  NodeSlab<uint64_t> slab;

  NodeId next_id = 0;
  std::unordered_map<NodeId, uint32_t> live_slot;     // Model: live ids.
  std::unordered_map<NodeId, uint64_t> model_value;   // Model: slab content.
  std::unordered_set<NodeId> lingering;  // Released, state not erased.
  std::vector<NodeId> live_ids;
  size_t peak_live = 0;

  const auto value_for = [](NodeId id) {
    return static_cast<uint64_t>(id) * 2654435761u + 17u;
  };

  for (int round = 0; round < 20000; ++round) {
    const uint32_t dice = rng.UniformInt(0, 9);
    if (dice < 5 || live_ids.empty()) {
      // Join: fresh monotonic id, never reused.
      const NodeId id = next_id++;
      const uint32_t slot = registry.Acquire(id);
      // The newcomer's slot must not still resolve for any dead id.
      slab.GetOrInit(registry, id,
                     [&](uint64_t& v) { v = value_for(id); });
      live_slot[id] = slot;
      model_value[id] = value_for(id);
      live_ids.push_back(id);
      peak_live = std::max(peak_live, live_ids.size());
    } else if (dice < 8) {
      // Leave: release a random live id; half the time erase its state
      // immediately, otherwise leave it lingering (soft-state shape).
      const size_t pick = rng.UniformInt(0, live_ids.size() - 1);
      const NodeId id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      registry.Release(id);
      live_slot.erase(id);
      if (rng.UniformInt(0, 1) == 0) {
        EXPECT_TRUE(slab.Erase(registry, id));
        model_value.erase(id);
      } else {
        lingering.insert(id);
      }
    } else {
      // Probe a random live id: slot stability + value round-trip.
      const NodeId id = live_ids[rng.UniformInt(0, live_ids.size() - 1)];
      ASSERT_EQ(registry.SlotOf(id), live_slot[id])
          << "slot moved for live id " << id;
      const uint64_t* value = slab.Find(registry, id);
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(*value, model_value[id]);
    }

    // A dead id whose slot was recycled must never alias the new owner.
    if (!lingering.empty() && rng.UniformInt(0, 3) == 0) {
      const NodeId dead = *lingering.begin();
      EXPECT_FALSE(registry.Contains(dead));
      const uint32_t slot = registry.RawSlotOf(dead);
      ASSERT_NE(slot, NodeRegistry::kNoSlot);
      const NodeId owner = registry.OwnerOfSlot(slot);
      const uint64_t* value = slab.Find(registry, dead);
      if (owner != kInvalidNode) {
        // Slot recycled: the dead id's state is unreachable, the owner's
        // reads back its own value.
        EXPECT_EQ(value, nullptr);
        const uint64_t* owner_value = slab.Find(registry, owner);
        ASSERT_NE(owner_value, nullptr);
        EXPECT_EQ(*owner_value, model_value[owner]);
        lingering.erase(dead);
        model_value.erase(dead);
      } else if (value != nullptr) {
        // Slot never recycled since the release: state is intact.
        EXPECT_EQ(*value, model_value[dead]);
      } else {
        // The slot was recycled in the meantime (by an owner that has
        // since left too): the lingering state was legitimately
        // overwritten, never aliased.
        lingering.erase(dead);
        model_value.erase(dead);
      }
    }
  }

  EXPECT_EQ(registry.live_count(), live_ids.size());
  // Slots are recycled: the slab's footprint tracks peak concurrency, not
  // the total number of ids ever issued.
  EXPECT_LE(registry.slot_count(), peak_live);
  EXPECT_LT(registry.slot_count(), static_cast<size_t>(next_id));

  // Full sweep: every live id still reads its own value through ForEach.
  size_t visited_live = 0;
  slab.ForEach([&](NodeId id, const uint64_t& value) {
    if (registry.Contains(id)) {
      ++visited_live;
      EXPECT_EQ(value, value_for(id));
    }
  });
  EXPECT_EQ(visited_live, live_ids.size());
}

// The id-order walk must visit exactly the entries the slot-order walk
// visits — live, lingering (released, not erased) and recycled slots alike
// — sorted by id, which is what the audit visitors used to build by
// collecting and sorting.
TEST(NodeSlabTest, ForEachByIdIsSortedForEachUnderChurn) {
  util::Rng rng(20261018);
  NodeRegistry registry;
  NodeSlab<uint64_t> slab;
  SplitNodeSlab<uint32_t, uint64_t> split;
  NodeId next_id = 0;
  std::vector<NodeId> live_ids;

  for (int round = 0; round < 5000; ++round) {
    const uint32_t dice = rng.UniformInt(0, 9);
    if (dice < 5 || live_ids.empty()) {
      const NodeId id = next_id++;
      registry.Acquire(id);
      live_ids.push_back(id);
      // Some newcomers never touch one of the slabs: state is created on
      // first access, not on registration.
      if (rng.UniformInt(0, 3) != 0) {
        slab.GetOrInit(registry, id, [&](uint64_t& v) { v = id; });
      }
      if (rng.UniformInt(0, 3) != 0) {
        split.SlotOrInit(registry, id, [&](uint32_t& hot, uint64_t& cold) {
          hot = id;
          cold = id;
        });
      }
    } else {
      const size_t pick = rng.UniformInt(0, live_ids.size() - 1);
      const NodeId id = live_ids[pick];
      live_ids[pick] = live_ids.back();
      live_ids.pop_back();
      registry.Release(id);
      // Half the departures leave their state lingering.
      if (rng.UniformInt(0, 1) == 0) slab.Erase(registry, id);
      if (rng.UniformInt(0, 1) == 0) split.Erase(registry, id);
    }
    if (round % 50 != 49) continue;

    std::vector<std::pair<NodeId, const uint64_t*>> expected, walked;
    slab.ForEach([&](NodeId id, const uint64_t& v) {
      expected.emplace_back(id, &v);
    });
    std::sort(expected.begin(), expected.end());
    slab.ForEachById(registry, [&](NodeId id, const uint64_t& v) {
      walked.emplace_back(id, &v);
    });
    ASSERT_EQ(walked, expected) << "round " << round;

    std::vector<std::pair<NodeId, const uint64_t*>> split_expected,
        split_walked;
    split.ForEach([&](NodeId id, const uint32_t&, const uint64_t& cold) {
      split_expected.emplace_back(id, &cold);
    });
    std::sort(split_expected.begin(), split_expected.end());
    split.ForEachById(registry,
                      [&](NodeId id, const uint32_t& hot, const uint64_t& c) {
                        EXPECT_EQ(hot, id);
                        split_walked.emplace_back(id, &c);
                      });
    ASSERT_EQ(split_walked, split_expected) << "round " << round;
  }
  // The churn really recycled slots.
  EXPECT_LT(registry.slot_count(), static_cast<size_t>(next_id) / 2);
}

}  // namespace
}  // namespace dupnet::core
