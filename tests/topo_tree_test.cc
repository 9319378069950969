#include "topo/tree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

namespace dupnet::topo {
namespace {

using ::dupnet::testing::MakePaperTree;

TEST(TreeTest, SingleNodeTree) {
  IndexSearchTree tree(5);
  EXPECT_EQ(tree.root(), 5u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.Contains(5));
  EXPECT_FALSE(tree.Contains(1));
  EXPECT_EQ(tree.Parent(5), kInvalidNode);
  EXPECT_TRUE(tree.Children(5).empty());
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(TreeTest, PaperTreeStructure) {
  IndexSearchTree tree = MakePaperTree();
  EXPECT_EQ(tree.size(), 8u);
  EXPECT_EQ(tree.root(), 1u);
  EXPECT_EQ(tree.Parent(6), 5u);
  EXPECT_EQ(tree.Parent(4), 3u);
  ASSERT_EQ(tree.Children(3).size(), 2u);
  EXPECT_EQ(tree.Children(3)[0], 4u);
  EXPECT_EQ(tree.Children(3)[1], 5u);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(TreeTest, DepthMatchesPaperFigure) {
  IndexSearchTree tree = MakePaperTree();
  EXPECT_EQ(tree.Depth(1), 0u);
  EXPECT_EQ(tree.Depth(2), 1u);
  EXPECT_EQ(tree.Depth(3), 2u);
  EXPECT_EQ(tree.Depth(4), 3u);
  EXPECT_EQ(tree.Depth(6), 4u);
  EXPECT_EQ(tree.Depth(7), 5u);
}

TEST(TreeTest, InSubtree) {
  IndexSearchTree tree = MakePaperTree();
  // 6's path to the root is 6, 5, 3, 2, 1; nothing else contains 6.
  std::vector<NodeId> ancestors;
  for (NodeId node = 1; node <= 8; ++node) {
    if (tree.InSubtree(6, node)) ancestors.push_back(node);
  }
  EXPECT_EQ(ancestors, (std::vector<NodeId>{1, 2, 3, 5, 6}));
  EXPECT_TRUE(tree.InSubtree(1, 1));
  EXPECT_FALSE(tree.InSubtree(1, 2));
  EXPECT_FALSE(tree.InSubtree(6, 4));
}

TEST(TreeTest, NearestCommonAncestor) {
  IndexSearchTree tree = MakePaperTree();
  // The paper: "N3, the nearest common parent of N4 and N6".
  EXPECT_EQ(tree.NearestCommonAncestor(4, 6), 3u);
  EXPECT_EQ(tree.NearestCommonAncestor(7, 8), 6u);
  EXPECT_EQ(tree.NearestCommonAncestor(4, 4), 4u);
  EXPECT_EQ(tree.NearestCommonAncestor(6, 1), 1u);
  EXPECT_EQ(tree.NearestCommonAncestor(6, 7), 6u);
}

TEST(TreeTest, NodesPreOrderVisitsAllOnce) {
  IndexSearchTree tree = MakePaperTree();
  auto order = tree.NodesPreOrder();
  EXPECT_EQ(order.size(), 8u);
  EXPECT_EQ(order.front(), 1u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(TreeTest, AttachLeafErrors) {
  IndexSearchTree tree = MakePaperTree();
  EXPECT_TRUE(tree.AttachLeaf(99, 10).IsNotFound());
  EXPECT_TRUE(tree.AttachLeaf(1, 6).IsAlreadyExists());
  EXPECT_TRUE(tree.AttachLeaf(1, kInvalidNode).IsInvalidArgument());
}

TEST(TreeTest, SplitEdgeInsertsBetween) {
  IndexSearchTree tree = MakePaperTree();
  // Paper Section III-C: "a new node N3' is inserted between N3 and N5".
  ASSERT_TRUE(tree.SplitEdge(3, 5, 35).ok());
  EXPECT_EQ(tree.Parent(5), 35u);
  EXPECT_EQ(tree.Parent(35), 3u);
  // N3' takes N5's slot in N3's child order.
  EXPECT_EQ(tree.Children(3), (std::vector<NodeId>{4, 35}));
  EXPECT_EQ(tree.Children(35), std::vector<NodeId>{5});
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.Depth(6), 5u);
}

TEST(TreeTest, SplitEdgeErrors) {
  IndexSearchTree tree = MakePaperTree();
  EXPECT_TRUE(tree.SplitEdge(99, 5, 10).IsNotFound());
  EXPECT_TRUE(tree.SplitEdge(3, 6, 10).IsInvalidArgument());  // Not an edge.
  EXPECT_TRUE(tree.SplitEdge(3, 5, 6).IsAlreadyExists());
  EXPECT_TRUE(tree.SplitEdge(3, 5, kInvalidNode).IsInvalidArgument());
}

TEST(TreeTest, RemoveLeaf) {
  IndexSearchTree tree = MakePaperTree();
  auto replacement = tree.RemoveNode(7);
  ASSERT_TRUE(replacement.ok());
  EXPECT_EQ(*replacement, 6u);
  EXPECT_FALSE(tree.Contains(7));
  EXPECT_EQ(tree.Children(6), std::vector<NodeId>{8});
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(TreeTest, RemoveInnerNodeReparentsChildrenInPlace) {
  IndexSearchTree tree = MakePaperTree();
  auto replacement = tree.RemoveNode(5);
  ASSERT_TRUE(replacement.ok());
  EXPECT_EQ(*replacement, 3u);
  EXPECT_EQ(tree.Parent(6), 3u);
  // N6 takes N5's position in N3's child order.
  EXPECT_EQ(tree.Children(3), (std::vector<NodeId>{4, 6}));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(TreeTest, RemoveNodeWithMultipleChildren) {
  IndexSearchTree tree = MakePaperTree();
  ASSERT_TRUE(tree.RemoveNode(6).ok());
  EXPECT_EQ(tree.Parent(7), 5u);
  EXPECT_EQ(tree.Parent(8), 5u);
  EXPECT_EQ(tree.Children(5), (std::vector<NodeId>{7, 8}));
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(TreeTest, RemoveRootPromotesFirstChild) {
  IndexSearchTree tree = MakePaperTree();
  // Give the root a second child so the promotion re-attaches siblings.
  ASSERT_TRUE(tree.AttachLeaf(1, 9).ok());
  auto replacement = tree.RemoveNode(1);
  ASSERT_TRUE(replacement.ok());
  EXPECT_EQ(*replacement, 2u);
  EXPECT_EQ(tree.root(), 2u);
  EXPECT_EQ(tree.Parent(2), kInvalidNode);
  EXPECT_EQ(tree.Parent(9), 2u);
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_EQ(tree.size(), 8u);
}

TEST(TreeTest, RemoveErrors) {
  IndexSearchTree tree(1);
  EXPECT_TRUE(tree.RemoveNode(9).status().IsNotFound());
  EXPECT_TRUE(tree.RemoveNode(1).status().IsFailedPrecondition());
}

TEST(TreeTest, AverageAndMaxDepth) {
  IndexSearchTree tree = MakePaperTree();
  // Depths: 0,1,2,3,3,4,5,5 -> total 23, avg 23/8.
  EXPECT_DOUBLE_EQ(tree.AverageDepth(), 23.0 / 8.0);
  EXPECT_EQ(tree.MaxDepth(), 5u);
}

TEST(TreeTest, SequentialChurnKeepsTreeValid) {
  IndexSearchTree tree = MakePaperTree();
  ASSERT_TRUE(tree.SplitEdge(2, 3, 23).ok());
  ASSERT_TRUE(tree.AttachLeaf(23, 30).ok());
  ASSERT_TRUE(tree.RemoveNode(3).ok());
  ASSERT_TRUE(tree.RemoveNode(30).ok());
  ASSERT_TRUE(tree.AttachLeaf(5, 31).ok());
  EXPECT_TRUE(tree.Validate().ok());
  // 8 original + 23 + 30 + 31 joined - 3 and 30 removed = 9.
  EXPECT_EQ(tree.size(), 9u);
  // N3 removed: its children 4 and 5 now hang from 23.
  EXPECT_EQ(tree.Parent(4), 23u);
  EXPECT_EQ(tree.Parent(5), 23u);
}

}  // namespace
}  // namespace dupnet::topo
