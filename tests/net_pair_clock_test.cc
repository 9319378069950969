#include "net/pair_clock.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dupnet::net {
namespace {

// Eviction must be invisible: a table that drops dead links and resizes by
// the live count returns exactly what a map that keeps every link forever
// returns. The key space is small enough that links die, get evicted and
// come back many times; the clock jumps now and then so whole generations
// die at once.
TEST(PairClockTest, MatchesANeverEvictingMapOnARandomStream) {
  util::Rng rng(20260518);
  PairClock clock;
  std::unordered_map<uint64_t, sim::SimTime> reference;
  sim::SimTime now = 0.0;
  for (int op = 0; op < 400000; ++op) {
    const bool jump = rng.UniformInt(0, 99) == 0;
    now += rng.UniformDouble(0.0, jump ? 40.0 : 0.05);
    const uint64_t key = rng.UniformInt(0, 4999);
    const sim::SimTime proposed = now + rng.UniformDouble(0.0, 10.0);
    sim::SimTime& expected = reference[key];
    expected = std::max(expected, proposed);
    ASSERT_EQ(clock.Advance(key, proposed, now), expected) << "op " << op;
  }
  // Evicted links that came back were inserted again.
  EXPECT_GT(clock.inserts(), reference.size());
}

// The table is sized by the links alive at once, not by the links ever
// seen: a million distinct links, each live for 32 time units, never need
// more than a few dozen slots.
TEST(PairClockTest, ShortLivedLinksKeepTheTableSmall) {
  PairClock clock;
  size_t max_capacity = 0;
  for (uint64_t i = 0; i < 1000000; ++i) {
    const sim::SimTime now = static_cast<sim::SimTime>(i);
    ASSERT_EQ(clock.Advance(i, now + 32.0, now), now + 32.0);
    max_capacity = std::max(max_capacity, clock.capacity());
  }
  EXPECT_LE(max_capacity, 1024u);
  EXPECT_LE(clock.size(), 64u);
  EXPECT_EQ(clock.inserts(), 1000000u);
}

// Reserve sets a floor: eviction never shrinks the table below it, so a
// prewarmed run never reallocates.
TEST(PairClockTest, ReservedCapacityNeverShrinks) {
  PairClock clock;
  clock.Reserve(10000, 0.0);
  const size_t reserved = clock.capacity();
  ASSERT_GE(reserved * 7, size_t{10000} * 10);
  for (uint64_t i = 0; i < 200000; ++i) {
    const sim::SimTime now = static_cast<sim::SimTime>(i);
    clock.Advance(i, now + 1.0, now);
    ASSERT_EQ(clock.capacity(), reserved) << "insert " << i;
  }
  clock.Reserve(10, 200000.0);
  EXPECT_EQ(clock.capacity(), reserved);
}

}  // namespace
}  // namespace dupnet::net
