#include "core/adaptive_protocol.h"

#include <algorithm>

#include "util/check.h"

namespace dupnet::core {

using net::Message;
using net::MessageType;
using proto::AdaptiveRegime;

AdaptiveProtocol::AdaptiveProtocol(
    net::OverlayNetwork* network, topo::IndexSearchTree* tree,
    const proto::ProtocolOptions& options, const DupOptions& dup_options,
    const proto::AdaptiveOptions& adaptive_options)
    : DupProtocol(network, tree, options, dup_options),
      controller_(adaptive_options),
      cup_(this, proto::CupOptions()) {}

// ---------------------------------------------------------------------------
// Hooks from the shared query flow.
// ---------------------------------------------------------------------------

void AdaptiveProtocol::AfterLocalQuery(NodeId /*node*/) {
  controller_.RecordQuery(Now());
}

void AdaptiveProtocol::AfterRequestObserved(NodeId at, NodeId from_child) {
  // Demand is measured in every regime, which keeps the CUP handover warm.
  cup_.RecordDemand(at, from_child);
}

void AdaptiveProtocol::AfterQueryObserved(NodeId node) {
  switch (controller_.regime()) {
    case AdaptiveRegime::kDup:
      DupProtocol::AfterQueryObserved(node);
      return;
    case AdaptiveRegime::kCup:
      cup_.NotifyIfInterested(node);
      return;
    case AdaptiveRegime::kPcx:
      return;
  }
}

// ---------------------------------------------------------------------------
// Publish path: controller tick + regime dispatch.
// ---------------------------------------------------------------------------

void AdaptiveProtocol::OnRootPublish(IndexVersion version,
                                     sim::SimTime expiry) {
  controller_.RecordUpdate(Now());
  const AdaptiveRegime before = controller_.regime();
  const AdaptiveRegime after = controller_.Tick(Now());
  if (after != before) MigrateRegime(before, after);

  if (after == AdaptiveRegime::kDup) {
    // Full DUP semantics: base publish + root dedupe stamp + subscriber
    // fan-out (with the arity-capped relay plan when configured).
    DupProtocol::OnRootPublish(version, expiry);
    return;
  }

  TreeProtocolBase::OnRootPublish(version, expiry);
  dup_states().HotAt(DupSlotOf(tree()->root())).last_forwarded = version;
  // Straggler sweep: subscriptions that raced the DUP teardown (in-flight
  // subscribes, churn re-announcements) withdraw at the next tick, so the
  // DUP tree is provably gone while the key runs PCX or CUP.
  SweepDupSubscriptions();
  if (after == AdaptiveRegime::kCup) {
    cup_.ForwardPush(tree()->root(), version, expiry);
  }
}

// ---------------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------------

void AdaptiveProtocol::HandleProtocolMessage(const Message& message) {
  switch (message.type) {
    case MessageType::kPush:
      HandleAdaptivePush(message);
      return;
    case MessageType::kInterestRegister:
      cup_.HandleRegister(message);
      return;
    default:
      // kSubscribe / kUnsubscribe / kSubstitute (including delegation
      // control): the Figure 3 machinery stays live in every regime so
      // in-flight handover messages always settle.
      DupProtocol::HandleProtocolMessage(message);
      return;
  }
}

void AdaptiveProtocol::HandleAdaptivePush(const Message& message) {
  if (controller_.regime() == AdaptiveRegime::kDup) {
    DupProtocol::HandlePush(message);
    return;
  }
  const NodeId at = message.to;
  StateOf(at).cache.Put(MakeCacheEntry(message.version, message.expiry));
  DupHot& hot = dup_states().HotAt(DupSlotOf(at));
  if (message.version <= hot.last_forwarded) return;  // Duplicate.
  hot.last_forwarded = message.version;
  // Migration decay: a DUP subscription that survived the teardown sweep
  // withdraws on first push contact (mirrors DupProtocol's interest-decay
  // unsubscribe).
  if (SlistOf(at).HasSelf()) ProcessUnsubscribe(at, kSelfBranch);
  if (controller_.regime() == AdaptiveRegime::kCup) {
    cup_.ForwardPush(at, message.version, message.expiry);
  }
}

// ---------------------------------------------------------------------------
// Regime handover.
// ---------------------------------------------------------------------------

void AdaptiveProtocol::MigrateRegime(AdaptiveRegime from, AdaptiveRegime to) {
  if (from == AdaptiveRegime::kDup) SweepDupSubscriptions();
  if (to == AdaptiveRegime::kDup) EnterDup();
  // Interested nodes re-register on their next query; the per-branch
  // demand windows are already warm from live request traffic.
  if (to == AdaptiveRegime::kCup) cup_.RearmNotifications();
}

void AdaptiveProtocol::EnterDup() {
  // Every currently interested node self-subscribes with a real kSubscribe
  // message, paying the honest tree-construction cost. Sorted ascending so
  // the migration burst is identical across runs (determinism contract).
  sweep_scratch_ = tree()->NodesPreOrder();
  std::sort(sweep_scratch_.begin(), sweep_scratch_.end());
  const NodeId root = tree()->root();
  for (NodeId node : sweep_scratch_) {
    if (node == root) continue;
    if (!Interested(node)) continue;
    if (SlistOf(node).HasSelf()) continue;
    ProcessSubscribe(node, kSelfBranch, node);
  }
}

void AdaptiveProtocol::SweepDupSubscriptions() {
  sweep_scratch_.clear();
  const NodeId root = tree()->root();
  dup_states().ForEach([&](NodeId node, const DupHot&, const DupCold& cold) {
    if (node == root || !tree()->Contains(node)) return;
    if (cold.slist.HasSelf()) sweep_scratch_.push_back(node);
  });
  std::sort(sweep_scratch_.begin(), sweep_scratch_.end());
  for (NodeId node : sweep_scratch_) {
    ProcessUnsubscribe(node, kSelfBranch);
  }
}

// ---------------------------------------------------------------------------
// Churn.
// ---------------------------------------------------------------------------

void AdaptiveProtocol::OnSplitJoined(NodeId node, NodeId parent,
                                     NodeId child) {
  DupProtocol::OnSplitJoined(node, parent, child);
  // The CUP demand handover rides the same one-hop local handover
  // DupProtocol just charged, so no extra control hop.
  cup_.HandOverSplit(node, parent, child);
}

void AdaptiveProtocol::OnNodeRemoved(NodeId node, NodeId former_parent,
                                     const std::vector<NodeId>& former_children,
                                     bool was_root, NodeId new_root) {
  DupProtocol::OnNodeRemoved(node, former_parent, former_children, was_root,
                             new_root);
  cup_.Erase(node);
  if (controller_.regime() == AdaptiveRegime::kCup) {
    cup_.RenotifyOrphans(former_children);
  }
}

void AdaptiveProtocol::OnSoftStateRefresh() {
  if (controller_.regime() == AdaptiveRegime::kDup) {
    DupProtocol::OnSoftStateRefresh();
    return;
  }
  // Outside DUP the refresh is the migration safety net: tear down any
  // lingering subscriptions (nothing re-announces them, so the driver's
  // end-of-run prune then clears every non-self leftover), and in CUP
  // refresh the registrations the demand windows depend on.
  SweepDupSubscriptions();
  if (controller_.regime() == AdaptiveRegime::kCup) cup_.Reregister();
}

}  // namespace dupnet::core
