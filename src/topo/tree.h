#ifndef DUP_TOPO_TREE_H_
#define DUP_TOPO_TREE_H_

#include <cstdint>
#include <vector>

#include "core/node_registry.h"
#include "util/status.h"
#include "util/types.h"

namespace dupnet::topo {

/// The index search tree of a structured P2P network: the union of every
/// node's query path toward the authority node (the root). Queries and
/// DUP/CUP control messages are routed parent-ward along this tree, one
/// overlay hop per edge.
///
/// The tree is mutable to model churn:
///  * AttachLeaf      — a node joins outside any existing path.
///  * SplitEdge       — a node joins between two existing nodes and takes
///                      over part of the parent's key space (paper §III-C).
///  * RemoveNode      — a node leaves or fails; its children re-attach to
///                      its parent (for the root, the first child is
///                      promoted and becomes the new root/authority).
///
/// Storage is flat: the tree owns the simulation's `core::NodeRegistry`
/// (NodeId -> dense slot, slots recycled across churn) and keeps
/// parent/children records in a slot-indexed vector. Protocol layers and
/// caches index their own `core::NodeSlab`s with the same registry, so one
/// id translation serves every per-node table (docs/scaling.md).
class IndexSearchTree {
 public:
  /// Creates a tree containing only the root (the authority node).
  explicit IndexSearchTree(NodeId root);

  NodeId root() const { return root_; }
  size_t size() const { return registry_.live_count(); }
  bool Contains(NodeId node) const { return registry_.Contains(node); }

  /// The id -> dense-slot registry shared with protocol state slabs.
  const core::NodeRegistry& registry() const { return registry_; }

  /// Parent of `node`; kInvalidNode for the root. Pre: Contains(node).
  NodeId Parent(NodeId node) const;

  /// Children of `node` in attachment order. Pre: Contains(node).
  const std::vector<NodeId>& Children(NodeId node) const;

  /// Number of edges from `node` up to the root. Pre: Contains(node).
  uint32_t Depth(NodeId node) const;

  /// Whether `ancestor` lies on the path from `node` (inclusive) up to the
  /// root (inclusive). Walks parent links; allocates nothing.
  /// Pre: Contains(node).
  bool InSubtree(NodeId node, NodeId ancestor) const;

  /// Deepest common ancestor of `a` and `b`. Pre: both contained.
  NodeId NearestCommonAncestor(NodeId a, NodeId b) const;

  /// All nodes in pre-order from the root.
  std::vector<NodeId> NodesPreOrder() const;

  /// Adds `child` (must be new) under `parent` (must exist).
  util::Status AttachLeaf(NodeId parent, NodeId child);

  /// Inserts `mid` (must be new) on the edge parent->child, so that
  /// afterwards parent->mid->child. Pre: child's parent is `parent`.
  util::Status SplitEdge(NodeId parent, NodeId child, NodeId mid);

  /// Removes `node`. Non-root: children re-attach to node's parent, in
  /// place of `node` in the parent's child order; returns the parent as the
  /// replacement. Root: the first child is promoted to root and the
  /// remaining children re-attach under it; returns the new root. Removing
  /// the last node is an error.
  util::Result<NodeId> RemoveNode(NodeId node);

  /// Mean depth over all nodes (root included, depth 0).
  double AverageDepth() const;

  /// Maximum depth over all nodes.
  uint32_t MaxDepth() const;

  /// Pre-sizes the registry and record storage for `nodes` ids/slots.
  void Reserve(size_t nodes);

  /// Internal-consistency audit (parent/child symmetry, single root,
  /// acyclicity, full reachability). Cheap enough for tests after every
  /// mutation.
  util::Status Validate() const;

 private:
  struct NodeRecord {
    NodeId parent = kInvalidNode;
    std::vector<NodeId> children;
  };

  /// Claims a slot for a new node and resets its record in place (the
  /// children vector keeps any capacity left by the slot's prior owner).
  NodeRecord& AcquireRecord(NodeId node, NodeId parent);

  NodeRecord& RecordOf(NodeId node);
  const NodeRecord& RecordOf(NodeId node) const;

  NodeId root_;
  core::NodeRegistry registry_;
  std::vector<NodeRecord> records_;  ///< Indexed by registry slot.
};

}  // namespace dupnet::topo

#endif  // DUP_TOPO_TREE_H_
