#include "core/subscriber_list.h"

#include <gtest/gtest.h>

namespace dupnet::core {
namespace {

TEST(SubscriberListTest, StartsEmpty) {
  SubscriberList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_FALSE(list.HasSelf());
}

TEST(SubscriberListTest, SetNewBranchReturnsTrue) {
  SubscriberList list;
  EXPECT_TRUE(list.Set(5, 6));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.HasBranch(5));
  EXPECT_EQ(list.Get(5), std::optional<NodeId>(6));
}

TEST(SubscriberListTest, SetExistingBranchOverwrites) {
  SubscriberList list;
  list.Set(5, 6);
  EXPECT_FALSE(list.Set(5, 7));
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.Get(5), std::optional<NodeId>(7));
}

TEST(SubscriberListTest, SelfBranch) {
  SubscriberList list;
  list.Set(kSelfBranch, 3);
  EXPECT_TRUE(list.HasSelf());
  EXPECT_EQ(list.Get(kSelfBranch), std::optional<NodeId>(3));
}

TEST(SubscriberListTest, RemoveBranch) {
  SubscriberList list;
  list.Set(5, 6);
  EXPECT_TRUE(list.Remove(5));
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list.Remove(5));  // Idempotent.
}

TEST(SubscriberListTest, GetMissingBranch) {
  SubscriberList list;
  EXPECT_FALSE(list.Get(9).has_value());
  EXPECT_FALSE(list.HasBranch(9));
}

TEST(SubscriberListTest, SoleEntry) {
  SubscriberList list;
  list.Set(5, 6);
  const auto [branch, subscriber] = list.Sole();
  EXPECT_EQ(branch, 5u);
  EXPECT_EQ(subscriber, 6u);
}

TEST(SubscriberListTest, EntriesKeepInsertionOrder) {
  SubscriberList list;
  list.Set(3, 30);
  list.Set(1, 10);
  list.Set(2, 20);
  const auto& entries = list.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].branch, 3u);
  EXPECT_EQ(entries[1].branch, 1u);
  EXPECT_EQ(entries[2].branch, 2u);
}

TEST(SubscriberListTest, ContainsSubscriber) {
  SubscriberList list;
  list.Set(5, 6);
  list.Set(4, 4);
  EXPECT_TRUE(list.ContainsSubscriber(6));
  EXPECT_TRUE(list.ContainsSubscriber(4));
  EXPECT_FALSE(list.ContainsSubscriber(5));
}

TEST(SubscriberListTest, MultipleBranchesIndependent) {
  SubscriberList list;
  list.Set(1, 10);
  list.Set(2, 20);
  list.Set(kSelfBranch, 7);
  EXPECT_EQ(list.size(), 3u);
  list.Remove(1);
  EXPECT_FALSE(list.HasBranch(1));
  EXPECT_TRUE(list.HasBranch(2));
  EXPECT_TRUE(list.HasSelf());
}

TEST(SubscriberListTest, RemoveMiddlePreservesOthers) {
  SubscriberList list;
  list.Set(1, 10);
  list.Set(2, 20);
  list.Set(3, 30);
  list.Remove(2);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Get(1), std::optional<NodeId>(10));
  EXPECT_EQ(list.Get(3), std::optional<NodeId>(30));
}

}  // namespace
}  // namespace dupnet::core
