#ifndef DUP_CORE_DUP_PROTOCOL_H_
#define DUP_CORE_DUP_PROTOCOL_H_

#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/node_registry.h"
#include "core/subscriber_list.h"
#include "proto/tree_protocol_base.h"

namespace dupnet::core {

/// DUP-specific knobs.
struct DupOptions {
  /// When false, pushes walk the index search tree hop-by-hop instead of
  /// taking the direct overlay shortcut — the ablation that isolates the
  /// paper's key idea (Section III-A's "short-cuts").
  bool shortcut_push = true;

  /// When true, the initial self-subscribe is piggybacked on the request
  /// packet's interest bit (paper Section III-B) and costs no extra hops;
  /// explicit subscribe messages are the conservative default.
  bool piggyback_subscribe = false;

  /// Maximum number of subscribers a node pushes to directly; 0 disables
  /// the cap (the paper's unbounded fan-out, bit-identical to the
  /// pre-cap behaviour). Under a flash crowd a branch node's fan-out can
  /// reach thousands, so with a cap each overflowing node plans a
  /// deterministic cap-ary relay tree over its own subscribers (D³-Tree
  /// style load balancing): the first `max_arity` subscribers in id order
  /// are pushed directly, subscriber at position i >= max_arity is
  /// delegated to the subscriber at position i / max_arity - 1. Every
  /// delegate relays to at most max_arity targets per delegator and relay
  /// depth is O(log_max_arity fan_out).
  uint32_t max_arity = 0;
};

/// Dynamic-tree based Update Propagation — the paper's contribution
/// (Section III). On top of the index search tree, nodes maintain
/// branch-keyed subscriber lists that collectively form
///  * the *virtual path*: every node with a non-empty S_list, and
///  * the *DUP tree*: the root, the branch points (|S_list| >= 2), and the
///    interested nodes themselves.
/// Updates are pushed directly (one overlay hop) between consecutive DUP
/// tree nodes, skipping the uninterested virtual-path nodes in between.
/// Tree maintenance uses the subscribe / unsubscribe / substitute messages
/// of Figure 3; node arrival, departure and the five failure cases of
/// Section III-C are handled in the churn overrides.
///
/// Per-node DUP state lives in a core::SplitNodeSlab indexed by the tree's
/// NodeRegistry (docs/scaling.md): flat slot-addressed storage, created
/// eagerly for every tree node (an empty S_list is observationally absent)
/// with each list's capacity reserved to its degree bound, so the push and
/// subscribe paths are allocation-free in steady state. The slab is
/// hot/cold split (docs/profiling.md): the duplicate-push version check —
/// run on every push delivery, including the duplicates it filters — reads
/// only the packed hot array; the S_lists sit in the parallel cold array
/// touched by subscription machinery and actual forwards.
class DupProtocol : public proto::TreeProtocolBase {
 public:
  DupProtocol(net::OverlayNetwork* network, topo::IndexSearchTree* tree,
              const proto::ProtocolOptions& options,
              const DupOptions& dup_options = DupOptions());

  std::string_view name() const override { return "dup"; }

  void OnRootPublish(IndexVersion version, sim::SimTime expiry) override;

  void OnSplitJoined(NodeId node, NodeId parent, NodeId child) override;
  void OnGracefulLeave(NodeId node) override;
  void OnNodeRemoved(NodeId node, NodeId former_parent,
                     const std::vector<NodeId>& former_children,
                     bool was_root, NodeId new_root) override;

  /// Soft-state repair: every virtual-path node re-announces its branch
  /// representative to its parent. Re-creates upstream entries wiped out by
  /// lost subscribe/substitute messages, so the DUP tree reconverges within
  /// one refresh interval of a loss (Section III-C's keep-alive soft state,
  /// extended to message loss).
  void OnSoftStateRefresh() override;

  // --- Explicit subscription API (pub/sub extension). -------------------

  /// Marks `node` permanently interested regardless of its query rate and
  /// subscribes it immediately. Idempotent.
  void ForceSubscribe(NodeId node);

  /// Clears a forced subscription; the node unsubscribes unless its query
  /// rate still qualifies it.
  void ForceUnsubscribe(NodeId node);

  /// Invoked whenever a pushed index version is installed at a node
  /// (delivery notification for the dissemination platform).
  using DeliveryCallback = std::function<void(NodeId, IndexVersion)>;
  void set_delivery_callback(DeliveryCallback cb) {
    delivery_callback_ = std::move(cb);
  }

  // --- Introspection (tests, reports). -----------------------------------

  const SubscriberList& SubscriberListOf(NodeId node) {
    return SlistOf(node);
  }

  /// True iff `node` participates in update propagation: it is the root
  /// with subscribers, an interested subscribed node, or a branch point.
  bool InDupTree(NodeId node);

  /// True iff `node` lies on some virtual path (non-empty S_list).
  bool OnVirtualPath(NodeId node);

  /// The id this node's branch is represented by upstream: itself when it
  /// is a branch point, its sole entry otherwise; kInvalidNode when the
  /// node is not on any virtual path.
  NodeId RepresentativeOf(NodeId node) const;

  /// Read-only visit of every node's subscriber list, in ascending node
  /// order (audit introspection; never creates state).
  void VisitSubscriberStates(
      const std::function<void(NodeId, const SubscriberList&)>& fn) const;

  /// `node`'s subscriber list, or null when it holds no DUP state (never
  /// creates state).
  const SubscriberList* FindSubscriberList(NodeId node) const;

  /// Soft-state reconciliation: drops every non-self entry whose last
  /// announcement predates `cutoff`, cascading upstream exactly like an
  /// explicit unsubscribe. After one OnSoftStateRefresh round has drained,
  /// calling this with the round's start time removes precisely the
  /// entries no live branch re-announced — the orphans left behind by
  /// lost messages that exhausted their retries (the keep-alive expiry of
  /// Section III-C, applied to message loss). Used by the driver's
  /// end-of-run reconvergence audit and by tests.
  void PruneEntriesNotAnnouncedSince(sim::SimTime cutoff);

  /// Largest subscriber list currently held by any node — the paper's
  /// scalability bound ("at most equal to the number of its direct
  /// children").
  size_t MaxSubscriberListSize() const;

  /// Deterministically rebuilds every node's relay duties from the live
  /// delegators' plans (the authoritative side), dropping stale entries and
  /// restoring missing ones. Sends no messages. The delegation-state
  /// counterpart of PruneEntriesNotAnnouncedSince: at-least-once delivery
  /// can resurrect a revoked relay via a retransmitted assign, which a real
  /// deployment would expire through the same keep-alive TTL as S_list
  /// entries. Used by the driver's end-of-run reconvergence audit.
  void ReconcileRelays();

  // --- Arity-capped fan-out introspection (audit, bench). ----------------

  /// Read-only view of one node's push fan-out plan: its subscriber list
  /// plus the delegation plan (at the delegator: target -> delegate,
  /// sorted by target) and the relay duties accepted from upstream
  /// delegators (at the delegate: (delegator, target), sorted).
  struct FanOutState {
    const SubscriberList* slist = nullptr;
    const std::vector<std::pair<NodeId, NodeId>>* delegations = nullptr;
    const std::vector<std::pair<NodeId, NodeId>>* relays = nullptr;
  };

  /// Visits every node's fan-out state in ascending node order (never
  /// creates state).
  void VisitFanOutStates(
      const std::function<void(NodeId, const FanOutState&)>& fn) const;

  /// `node`'s fan-out state, or one with a null `slist` when the node holds
  /// no DUP state (never creates state; audit lookups).
  FanOutState FanOutOf(NodeId node) const;

  /// Largest number of push messages any single node sends for one update
  /// (direct non-delegated subscribers plus accepted relay duties) — the
  /// load-balancing headline of the bench_adaptive exhibit.
  size_t MaxDirectFanOut() const;

  /// Snapshot of the propagation structures (Figure 2's taxonomy).
  struct TreeStats {
    size_t interested = 0;     ///< Nodes holding a SELF entry.
    size_t virtual_path = 0;   ///< Nodes with a non-empty S_list.
    size_t dup_tree = 0;       ///< Root + interested + branch points.
    size_t branch_points = 0;  ///< Nodes with |S_list| >= 2 (non-root).
  };
  TreeStats ComputeTreeStats() const;

  // The former ValidatePropagationState() audit lives in
  // audit::InvariantChecker now (audit/invariant_checker.h), which checks
  // a superset of its invariants; use audit::AuditQuiescent() for the
  // one-shot form.

  const DupOptions& dup_options() const { return dup_options_; }

 protected:
  void AfterQueryObserved(NodeId node) override;
  void HandleProtocolMessage(const net::Message& message) override;

  // The Figure 3 machinery below is protected (not private) so the
  // adaptive regime controller (core::AdaptiveProtocol) can reuse it for
  // scheme handover without duplicating the state machine.

  /// Hot half: read on every push delivery (duplicate filtering).
  struct DupHot {
    IndexVersion last_forwarded = 0;
  };
  /// Cold half: only subscription changes and actual forwards touch it.
  /// The arity cap's plan lives in a side table (ArityPlan), so a run
  /// without the cap pays for the S_list alone.
  struct DupCold {
    SubscriberList slist;
  };
  /// Fan-out plan state of one node while DupOptions::max_arity caps it:
  /// `delegations` (target -> delegate, sorted by target) is the node's
  /// current plan; `relays` ((delegator, target), sorted) are the relay
  /// duties it accepted from overflowing delegators.
  struct ArityPlan {
    std::vector<std::pair<NodeId, NodeId>> delegations;
    std::vector<std::pair<NodeId, NodeId>> relays;
  };
  // Layout gates (docs/scaling.md's bytes/node accounting): a slot costs a
  // 16 B hot entry (owner tag, live flag, push stamp) plus the S_list's
  // vector header, whatever the arity cap.
  static_assert(sizeof(DupCold) == sizeof(std::vector<SubscriberList::Entry>),
                "DupCold is the S_list's vector header only");
  static_assert(SplitNodeSlab<DupHot, DupCold>::kHotEntryBytes == 16,
                "DUP hot entry: owner, live flag, one version stamp");

  /// Slab slot of `node`'s state, created (or re-initialised on a recycled
  /// slot) on first access; for a departed node, its lingering state.
  uint32_t DupSlotOf(NodeId node);
  /// `node`'s subscriber list (creates state like DupSlotOf).
  SubscriberList& SlistOf(NodeId node);
  /// `node`'s arity-cap plan, created with its DUP state. Only the paths
  /// that run while max_arity > 0 call it.
  ArityPlan& ArityPlanOf(NodeId node);

  bool Interested(NodeId node);

  /// Figure 3 process_subscribe: entry for `branch` becomes `subject`.
  void ProcessSubscribe(NodeId at, NodeId branch, NodeId subject);
  /// Figure 3 process_unsubscribe for the entry of `branch`.
  void ProcessUnsubscribe(NodeId at, NodeId branch);
  /// Figure 3 case (C): replace the entry of `branch` with `replacement`.
  void ProcessSubstitute(NodeId at, NodeId branch, NodeId old_subscriber,
                         NodeId replacement);

  void HandlePush(const net::Message& message);

  /// Pushes `version` from `from` to every subscriber in its list (minus
  /// delegated targets when the arity cap is on), then serves this node's
  /// accepted relay duties.
  void PushToSubscribers(NodeId from, IndexVersion version,
                         sim::SimTime expiry);

  void SendUp(NodeId from, net::MessageType type, NodeId subject,
              NodeId subject2 = kInvalidNode);
  void SendPush(NodeId from, NodeId to, IndexVersion version,
                sim::SimTime expiry);

  SplitNodeSlab<DupHot, DupCold>& dup_states() { return dup_states_; }

 private:
  /// Recomputes `node`'s delegation plan after a subscriber-list change and
  /// diffs it against the installed one, sending assign/revoke messages to
  /// the affected delegates. No-op with the cap off. Deterministic: the
  /// plan is a pure function of the sorted subscriber ids.
  void RebalanceFanOut(NodeId node);

  /// Installs or revokes one relay duty at the receiving delegate.
  /// Delegation control rides kSubscribe/kUnsubscribe with the marker
  /// subject2 == from (tree control always carries subject2 ==
  /// kInvalidNode there).
  void HandleDelegationControl(const net::Message& message);
  void SendDelegation(NodeId from, NodeId delegate, NodeId target,
                      bool assign);

  /// `node`'s arity-cap plan if it has one, else null (never creates).
  const ArityPlan* FindArityPlan(NodeId node) const;

  DupOptions dup_options_;
  SplitNodeSlab<DupHot, DupCold> dup_states_;
  /// The arity cap's side table: stays empty, and allocates nothing, while
  /// max_arity == 0.
  NodeSlab<ArityPlan> arity_plans_;
  std::unordered_set<NodeId> forced_;
  DeliveryCallback delivery_callback_;
  /// Reused snapshot of the pushing node's entries (PushToSubscribers) —
  /// SendPush never reenters it, so one scratch vector serves every push.
  std::vector<SubscriberList::Entry> push_scratch_;
  /// Reused snapshot of the pushing node's relay duties, same contract.
  std::vector<std::pair<NodeId, NodeId>> relay_scratch_;
  /// Reused by RebalanceFanOut for the recomputed plan.
  std::vector<NodeId> target_scratch_;
  std::vector<std::pair<NodeId, NodeId>> plan_scratch_;
};

}  // namespace dupnet::core

#endif  // DUP_CORE_DUP_PROTOCOL_H_
