#ifndef DUP_CORE_SUBSCRIBER_LIST_H_
#define DUP_CORE_SUBSCRIBER_LIST_H_

#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/types.h"

namespace dupnet::core {

/// Branch key meaning "this node itself is the subscriber" (the paper's
/// "each node records the node ids of the downstream nodes (including
/// itself) that are interested in the index").
inline constexpr NodeId kSelfBranch = kInvalidNode - 1;

/// The paper's S_list, keyed by downstream branch: for every child branch
/// of the index search tree the list holds at most one entry — the nearest
/// node in that branch that represents interest (an interested node, or a
/// DUP-tree branch point standing in for several). Keying by branch rather
/// than by id resolves the pseudocode's substitution matching: subscribe /
/// unsubscribe / substitute messages arriving from child c always operate
/// on the entry recorded for branch c.
///
/// Invariant: |S_list| <= (number of child branches) + 1 (the self entry).
class SubscriberList {
 public:
  /// One branch's entry. `announced` is when the branch last (re-)announced
  /// it — the soft-state keep-alive stamp consulted by
  /// DupProtocol::PruneEntriesNotAnnouncedSince.
  struct Entry {
    NodeId branch = kInvalidNode;
    NodeId subscriber = kInvalidNode;
    sim::SimTime announced = 0.0;
  };
  static_assert(sizeof(Entry) == 16, "two ids and one stamp, no padding");

  SubscriberList() = default;

  /// Inserts or overwrites the entry for `branch`. Returns true if a new
  /// branch was added (false = existing branch re-pointed). `announced`
  /// records when the entry was last (re-)announced by its branch — the
  /// soft-state keep-alive timestamp consulted by
  /// DupProtocol::PruneEntriesNotAnnouncedSince.
  bool Set(NodeId branch, NodeId subscriber, sim::SimTime announced = 0.0);

  /// Removes the entry for `branch`; returns false if absent.
  bool Remove(NodeId branch);

  /// When the entry for `branch` was last announced (0 when absent or never
  /// announced with a timestamp).
  sim::SimTime AnnouncedAt(NodeId branch) const;

  bool HasBranch(NodeId branch) const;
  std::optional<NodeId> Get(NodeId branch) const;

  bool HasSelf() const { return HasBranch(kSelfBranch); }

  /// Pre: size() == 1. The single entry (branch, subscriber) — the paper's
  /// S_list[0].
  std::pair<NodeId, NodeId> Sole() const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries in insertion order (stable for deterministic pushes).
  const std::vector<Entry>& entries() const { return entries_; }

  /// True iff some entry's subscriber equals `subscriber`.
  bool ContainsSubscriber(NodeId subscriber) const;

  /// Distinct subscriber ids in ascending order, excluding `exclude` (the
  /// holding node's own id — a self entry is not a push target). This is
  /// the deterministic push-target set the arity-capped fan-out planner
  /// (DupOptions::max_arity) assigns relay duties over.
  std::vector<NodeId> SubscribersSorted(NodeId exclude) const;

  /// Drops all entries, keeping capacity (slab slot recycling).
  void Clear() { entries_.clear(); }

  /// Pre-sizes for `branches` entries (child degree + the self entry).
  void Reserve(size_t branches) { entries_.reserve(branches); }

 private:
  // Degree-bounded (the paper: "at most equal to the number of direct
  // children"), so a flat vector beats a hash map: one heap block per node.
  std::vector<Entry> entries_;
};

}  // namespace dupnet::core

#endif  // DUP_CORE_SUBSCRIBER_LIST_H_
