#include "topo/tree.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"
#include "util/hugepage.h"
#include "util/str.h"

namespace dupnet::topo {

using util::Result;
using util::Status;

IndexSearchTree::IndexSearchTree(NodeId root) : root_(root) {
  DUP_CHECK_NE(root, kInvalidNode);
  AcquireRecord(root, kInvalidNode);
}

IndexSearchTree::NodeRecord& IndexSearchTree::AcquireRecord(NodeId node,
                                                            NodeId parent) {
  const uint32_t slot = registry_.Acquire(node);
  if (records_.size() <= slot) {
    util::ResizeWithHugePages(records_, registry_.slot_count());
  }
  NodeRecord& rec = records_[slot];
  rec.parent = parent;
  rec.children.clear();  // Keeps the prior owner's capacity.
  return rec;
}

IndexSearchTree::NodeRecord& IndexSearchTree::RecordOf(NodeId node) {
  const uint32_t slot = registry_.SlotOf(node);
  DUP_CHECK_NE(slot, core::NodeRegistry::kNoSlot) << "unknown node " << node;
  return records_[slot];
}

const IndexSearchTree::NodeRecord& IndexSearchTree::RecordOf(
    NodeId node) const {
  const uint32_t slot = registry_.SlotOf(node);
  DUP_CHECK_NE(slot, core::NodeRegistry::kNoSlot) << "unknown node " << node;
  return records_[slot];
}

NodeId IndexSearchTree::Parent(NodeId node) const {
  return RecordOf(node).parent;
}

const std::vector<NodeId>& IndexSearchTree::Children(NodeId node) const {
  return RecordOf(node).children;
}

uint32_t IndexSearchTree::Depth(NodeId node) const {
  uint32_t depth = 0;
  NodeId cur = node;
  while (cur != root_) {
    cur = Parent(cur);
    ++depth;
    DUP_CHECK_LE(depth, size()) << "cycle detected at node " << node;
  }
  return depth;
}

bool IndexSearchTree::InSubtree(NodeId node, NodeId ancestor) const {
  NodeId cur = node;
  for (size_t steps = 0; cur != ancestor; ++steps) {
    if (cur == root_) return false;
    cur = Parent(cur);
    DUP_CHECK_LE(steps, size()) << "cycle detected at node " << node;
  }
  return true;
}

NodeId IndexSearchTree::NearestCommonAncestor(NodeId a, NodeId b) const {
  uint32_t da = Depth(a);
  uint32_t db = Depth(b);
  while (da > db) {
    a = Parent(a);
    --da;
  }
  while (db > da) {
    b = Parent(b);
    --db;
  }
  while (a != b) {
    a = Parent(a);
    b = Parent(b);
  }
  return a;
}

std::vector<NodeId> IndexSearchTree::NodesPreOrder() const {
  std::vector<NodeId> order;
  order.reserve(size());
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    const auto& children = Children(cur);
    // Push in reverse so children visit in attachment order.
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return order;
}

Status IndexSearchTree::AttachLeaf(NodeId parent, NodeId child) {
  if (!Contains(parent)) {
    return Status::NotFound(util::StrFormat("parent %u not in tree", parent));
  }
  if (Contains(child)) {
    return Status::AlreadyExists(
        util::StrFormat("node %u already in tree", child));
  }
  if (child == kInvalidNode) {
    return Status::InvalidArgument("child id is the invalid sentinel");
  }
  AcquireRecord(child, parent);
  RecordOf(parent).children.push_back(child);
  return Status::OK();
}

Status IndexSearchTree::SplitEdge(NodeId parent, NodeId child, NodeId mid) {
  if (!Contains(parent) || !Contains(child)) {
    return Status::NotFound("edge endpoint not in tree");
  }
  if (Contains(mid)) {
    return Status::AlreadyExists(
        util::StrFormat("node %u already in tree", mid));
  }
  if (mid == kInvalidNode) {
    return Status::InvalidArgument("mid id is the invalid sentinel");
  }
  if (Parent(child) != parent) {
    return Status::InvalidArgument(
        util::StrFormat("%u is not the parent of %u", parent, child));
  }
  NodeRecord& mid_rec = AcquireRecord(mid, parent);
  mid_rec.children.push_back(child);
  NodeRecord& parent_rec = RecordOf(parent);
  auto slot = std::find(parent_rec.children.begin(),
                        parent_rec.children.end(), child);
  DUP_CHECK(slot != parent_rec.children.end());
  *slot = mid;
  RecordOf(child).parent = mid;
  return Status::OK();
}

Result<NodeId> IndexSearchTree::RemoveNode(NodeId node) {
  if (!Contains(node)) {
    return Status::NotFound(util::StrFormat("node %u not in tree", node));
  }
  if (size() == 1) {
    return Status::FailedPrecondition("cannot remove the last node");
  }

  if (node == root_) {
    // Promote the first child; re-attach the remaining children under it.
    const NodeRecord rec = RecordOf(node);
    DUP_CHECK(!rec.children.empty());
    const NodeId promoted = rec.children.front();
    NodeRecord& promoted_rec = RecordOf(promoted);
    promoted_rec.parent = kInvalidNode;
    for (size_t i = 1; i < rec.children.size(); ++i) {
      const NodeId sibling = rec.children[i];
      RecordOf(sibling).parent = promoted;
      promoted_rec.children.push_back(sibling);
    }
    registry_.Release(node);
    root_ = promoted;
    return promoted;
  }

  const NodeRecord rec = RecordOf(node);
  const NodeId parent = rec.parent;
  NodeRecord& parent_rec = RecordOf(parent);
  auto slot = std::find(parent_rec.children.begin(),
                        parent_rec.children.end(), node);
  DUP_CHECK(slot != parent_rec.children.end());
  // Children take the removed node's position in the parent's child order.
  const size_t index = static_cast<size_t>(slot - parent_rec.children.begin());
  parent_rec.children.erase(slot);
  parent_rec.children.insert(parent_rec.children.begin() +
                                 static_cast<ptrdiff_t>(index),
                             rec.children.begin(), rec.children.end());
  for (NodeId child : rec.children) {
    RecordOf(child).parent = parent;
  }
  registry_.Release(node);
  return parent;
}

double IndexSearchTree::AverageDepth() const {
  uint64_t total = 0;
  // Pre-order walk tracking depth incrementally: O(n).
  std::vector<std::pair<NodeId, uint32_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [cur, depth] = stack.back();
    stack.pop_back();
    total += depth;
    for (NodeId child : Children(cur)) stack.push_back({child, depth + 1});
  }
  return static_cast<double>(total) / static_cast<double>(size());
}

uint32_t IndexSearchTree::MaxDepth() const {
  uint32_t max_depth = 0;
  std::vector<std::pair<NodeId, uint32_t>> stack = {{root_, 0}};
  while (!stack.empty()) {
    auto [cur, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    for (NodeId child : Children(cur)) stack.push_back({child, depth + 1});
  }
  return max_depth;
}

void IndexSearchTree::Reserve(size_t nodes) {
  registry_.Reserve(/*max_id=*/nodes, /*slots=*/nodes);
  util::ReserveWithHugePages(records_, nodes);
}

Status IndexSearchTree::Validate() const {
  if (!Contains(root_)) return Status::Internal("root not contained");
  if (RecordOf(root_).parent != kInvalidNode) {
    return Status::Internal("root has a parent");
  }
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) {
      return Status::Internal(util::StrFormat("node %u visited twice", cur));
    }
    for (NodeId child : Children(cur)) {
      if (!Contains(child)) {
        return Status::Internal(
            util::StrFormat("child %u of %u missing", child, cur));
      }
      if (Parent(child) != cur) {
        return Status::Internal(util::StrFormat(
            "child %u of %u has parent %u", child, cur, Parent(child)));
      }
      stack.push_back(child);
    }
  }
  if (seen.size() != size()) {
    return Status::Internal(
        util::StrFormat("%zu nodes reachable of %zu", seen.size(), size()));
  }
  return Status::OK();
}

}  // namespace dupnet::topo
