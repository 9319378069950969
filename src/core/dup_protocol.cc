#include "core/dup_protocol.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dupnet::core {

using net::Message;
using net::MessageType;

DupProtocol::DupProtocol(net::OverlayNetwork* network,
                         topo::IndexSearchTree* tree,
                         const proto::ProtocolOptions& options,
                         const DupOptions& dup_options)
    : TreeProtocolBase(network, tree, options), dup_options_(dup_options) {
  // Eager S_lists for every current tree node, each reserved to its degree
  // bound (|S_list| <= children + self) so steady-state subscribes and the
  // push fan-out scratch never allocate.
  size_t max_degree = 0;
  for (NodeId node : tree->NodesPreOrder()) {
    const size_t degree = tree->Children(node).size();
    SlistOf(node).Reserve(degree + 1);
    max_degree = std::max(max_degree, degree);
  }
  push_scratch_.reserve(max_degree + 1);
}

uint32_t DupProtocol::DupSlotOf(NodeId node) {
  return dup_states_.SlotOrInit(tree()->registry(), node,
                                [](DupHot& hot, DupCold& cold) {
                                  hot.last_forwarded = 0;
                                  cold.slist.Clear();
                                });
}

SubscriberList& DupProtocol::SlistOf(NodeId node) {
  return dup_states_.ColdAt(DupSlotOf(node)).slist;
}

DupProtocol::ArityPlan& DupProtocol::ArityPlanOf(NodeId node) {
  DupSlotOf(node);  // A plan never exists without the node's DUP state.
  return arity_plans_.GetOrInit(tree()->registry(), node,
                                [](ArityPlan& plan) {
                                  plan.delegations.clear();
                                  plan.relays.clear();
                                });
}

const DupProtocol::ArityPlan* DupProtocol::FindArityPlan(NodeId node) const {
  return arity_plans_.Find(tree()->registry(), node);
}

bool DupProtocol::Interested(NodeId node) {
  return forced_.count(node) > 0 || NodeInterested(node);
}

// ---------------------------------------------------------------------------
// Figure 3 state machine.
// ---------------------------------------------------------------------------

void DupProtocol::ProcessSubscribe(NodeId at, NodeId branch, NodeId subject) {
  SubscriberList& slist = SlistOf(at);
  const bool is_root = at == tree()->root();

  if (slist.HasBranch(branch)) {
    // The branch is already represented; this is a representative change
    // (e.g. a nearer node subscribed, or a churn re-announcement).
    slist.Set(branch, subject, Now());
    if (!is_root && slist.size() == 1) {
      // Pass-through virtual-path node: the new representative must reach
      // whoever actually pushes for this branch.
      SendUp(at, MessageType::kSubscribe, subject);
    }
    RebalanceFanOut(at);
    return;
  }

  // Remember the old sole subscriber N_k before the list grows (Figure 3,
  // process_subscribe).
  NodeId old_sole = kInvalidNode;
  if (slist.size() == 1) old_sole = slist.Sole().second;

  slist.Set(branch, subject, Now());
  if (is_root) {
    RebalanceFanOut(at);
    return;
  }

  if (slist.size() == 1) {
    // Had no subscriber, now has one: extend the virtual path upstream.
    SendUp(at, MessageType::kSubscribe, subject);
  } else if (slist.size() == 2) {
    // Had one subscriber, now two: this node becomes a DUP-tree branch
    // point and replaces the old subscriber upstream. When the old sole
    // subscriber was this node itself (its own self entry), upstream
    // already points here and the no-op substitute is suppressed
    // (documented optimisation of the paper's pseudocode).
    if (old_sole != at) {
      SendUp(at, MessageType::kSubstitute, old_sole, at);
    }
  }
  // size > 2: already a branch point; nothing changes upstream.
  RebalanceFanOut(at);
}

void DupProtocol::ProcessUnsubscribe(NodeId at, NodeId branch) {
  SubscriberList& slist = SlistOf(at);
  if (!slist.Remove(branch)) return;  // Idempotent (churn re-delivery).
  RebalanceFanOut(at);
  if (at == tree()->root()) return;

  if (slist.empty()) {
    // No subscriber left: clear this stretch of the virtual path.
    SendUp(at, MessageType::kUnsubscribe, at);
  } else if (slist.size() == 1) {
    // One subscriber left: stop being a branch point; upstream should push
    // directly to the survivor. Suppressed when the survivor is this node
    // itself (upstream already points here).
    const NodeId survivor = slist.Sole().second;
    if (survivor != at) {
      SendUp(at, MessageType::kSubstitute, at, survivor);
    }
  }
  // size > 1: still a branch point; nothing changes upstream.
}

void DupProtocol::ProcessSubstitute(NodeId at, NodeId branch,
                                    NodeId old_subscriber,
                                    NodeId replacement) {
  SubscriberList& slist = SlistOf(at);
  if (!slist.HasBranch(branch)) return;  // Stale after churn.
  slist.Set(branch, replacement, Now());
  RebalanceFanOut(at);
  if (at == tree()->root()) return;
  if (slist.size() == 1) {
    // Not a DUP-tree node: the actual pusher is further upstream.
    SendUp(at, MessageType::kSubstitute, old_subscriber, replacement);
  }
}

// ---------------------------------------------------------------------------
// Hooks from the shared query flow.
// ---------------------------------------------------------------------------

void DupProtocol::AfterQueryObserved(NodeId node) {
  if (node == tree()->root()) return;
  if (!Interested(node)) return;
  if (SlistOf(node).HasSelf()) return;
  ProcessSubscribe(node, kSelfBranch, node);
}

void DupProtocol::HandleProtocolMessage(const Message& message) {
  const NodeId at = message.to;
  switch (message.type) {
    case MessageType::kPush:
      HandlePush(message);
      return;
    case MessageType::kSubscribe:
    case MessageType::kUnsubscribe:
    case MessageType::kSubstitute: {
      // Delegation control (arity cap) is addressed to an arbitrary
      // delegate, not the sender's parent, so intercept it before the
      // re-route logic below. Marker: subject2 == from — tree subscribes /
      // unsubscribes always carry subject2 == kInvalidNode, and while
      // substitutes do use subject2, they are excluded here.
      if (message.type != MessageType::kSubstitute &&
          message.subject2 == message.from) {
        HandleDelegationControl(message);
        return;
      }
      // A control message can cross a topology change while in flight.
      // Sender departed: its upstream entry was already repaired
      // synchronously by OnNodeRemoved, so the message is stale — drop it.
      // Sender re-parented (the edge it announced over was split): the
      // branch entry it operates on now lives at the newcomer, so hand the
      // message to the sender's current parent. Without this, the old
      // parent would install an entry keyed by a node that is no longer
      // its child — an orphan no unsubscribe can ever reach.
      const NodeId from = message.from;
      if (!tree()->Contains(from) || from == tree()->root()) return;
      if (const NodeId parent = tree()->Parent(from); parent != at) {
        Message forward = message;
        forward.to = parent;
        forward.seq = 0;         // A fresh transmission, reliably re-tracked.
        forward.free_ride = false;
        network()->Send(forward);
        return;
      }
      break;
    }
    default:
      DUP_CHECK(false) << "DUP received unexpected message: "
                       << message.ToString();
  }
  switch (message.type) {
    case MessageType::kSubscribe:
      ProcessSubscribe(at, /*branch=*/message.from, message.subject);
      return;
    case MessageType::kUnsubscribe:
      ProcessUnsubscribe(at, /*branch=*/message.from);
      return;
    default:
      ProcessSubstitute(at, /*branch=*/message.from, message.subject,
                        message.subject2);
      return;
  }
}

void DupProtocol::HandlePush(const Message& message) {
  const NodeId at = message.to;
  StateOf(at).cache.Put(MakeCacheEntry(message.version, message.expiry));
  const uint32_t slot = DupSlotOf(at);
  DupHot& hot = dup_states_.HotAt(slot);
  if (message.version <= hot.last_forwarded) return;  // Duplicate.
  hot.last_forwarded = message.version;
  if (delivery_callback_) delivery_callback_(at, message.version);

  // Interest decay check: a node that stopped being interested leaves the
  // DUP tree the next time it would have been served a push.
  if (dup_states_.ColdAt(slot).slist.HasSelf() && !Interested(at)) {
    ProcessUnsubscribe(at, kSelfBranch);
  }
  PushToSubscribers(at, message.version, message.expiry);
}

void DupProtocol::OnRootPublish(IndexVersion version, sim::SimTime expiry) {
  TreeProtocolBase::OnRootPublish(version, expiry);
  dup_states_.HotAt(DupSlotOf(tree()->root())).last_forwarded = version;
  PushToSubscribers(tree()->root(), version, expiry);
}

void DupProtocol::PushToSubscribers(NodeId from, IndexVersion version,
                                    sim::SimTime expiry) {
  // Snapshot into the scratch: SendPush never mutates the list, but the
  // entries vector may move if a callback reenters; stay safe. The scratch
  // keeps its capacity across pushes (degree-bounded).
  const SubscriberList& slist = SlistOf(from);
  push_scratch_.assign(slist.entries().begin(), slist.entries().end());
  const ArityPlan* plan =
      dup_options_.max_arity > 0 ? FindArityPlan(from) : nullptr;
  for (const SubscriberList::Entry& entry : push_scratch_) {
    const NodeId subscriber = entry.subscriber;
    if (subscriber == from) continue;  // Self entry.
    if (plan != nullptr && !plan->delegations.empty()) {
      // Delegated targets are served by their delegate's relay duty, not
      // directly.
      const auto& dels = plan->delegations;  // Sorted by target.
      const auto it = std::lower_bound(
          dels.begin(), dels.end(), subscriber,
          [](const auto& d, NodeId t) { return d.first < t; });
      if (it != dels.end() && it->first == subscriber) continue;
    }
    SendPush(from, subscriber, version, expiry);
  }
  // Serve accepted relay duties: this node forwards the update onward on
  // behalf of every delegator that overflowed its arity cap.
  if (plan != nullptr && !plan->relays.empty()) {
    relay_scratch_.assign(plan->relays.begin(), plan->relays.end());
    for (const auto& [delegator, target] : relay_scratch_) {
      if (target == from) continue;
      SendPush(from, target, version, expiry);
    }
  }
}

// ---------------------------------------------------------------------------
// Messaging helpers.
// ---------------------------------------------------------------------------

void DupProtocol::SendUp(NodeId from, MessageType type, NodeId subject,
                         NodeId subject2) {
  DUP_CHECK_NE(from, tree()->root());
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = tree()->Parent(from);
  msg.subject = subject;
  msg.subject2 = subject2;
  msg.free_ride =
      dup_options_.piggyback_subscribe && type == MessageType::kSubscribe;
  network()->Send(msg);
}

void DupProtocol::SendPush(NodeId from, NodeId to, IndexVersion version,
                           sim::SimTime expiry) {
  if (!tree()->Contains(to)) return;  // Stale entry; churn repair pending.
  Message push;
  push.type = MessageType::kPush;
  push.from = from;
  push.to = to;
  push.version = version;
  push.expiry = expiry;
  if (dup_options_.shortcut_push) {
    network()->Send(push);
    return;
  }
  // Ablation: without the overlay shortcut the push has to travel the index
  // search tree like CUP's would.
  const NodeId nca = tree()->NearestCommonAncestor(from, to);
  const uint32_t distance = tree()->Depth(from) + tree()->Depth(to) -
                            2 * tree()->Depth(nca);
  network()->SendMultiHop(push, distance > 0 ? distance - 1 : 0);
}

// ---------------------------------------------------------------------------
// Arity-capped fan-out (D³-Tree style load balancing).
// ---------------------------------------------------------------------------

void DupProtocol::RebalanceFanOut(NodeId node) {
  const size_t cap = dup_options_.max_arity;
  if (cap == 0) return;
  if (!tree()->Contains(node)) return;
  const SubscriberList& slist = SlistOf(node);

  // The desired plan is a pure function of the sorted distinct subscriber
  // ids: positions 0..cap-1 are pushed directly, position i >= cap is
  // delegated to position i / cap - 1. Each delegate therefore relays for
  // at most `cap` targets of this delegator, and the implied relay tree is
  // cap-ary (depth O(log_cap fan_out)). No randomness — identical across
  // shards, jobs and audit modes.
  target_scratch_ = slist.SubscribersSorted(node);
  plan_scratch_.clear();
  if (target_scratch_.size() > cap) {
    plan_scratch_.reserve(target_scratch_.size() - cap);
    for (size_t i = cap; i < target_scratch_.size(); ++i) {
      plan_scratch_.emplace_back(target_scratch_[i],
                                 target_scratch_[i / cap - 1]);
    }
    // Ascending targets in, ascending targets out: already sorted.
  }
  ArityPlan& plan = ArityPlanOf(node);
  if (plan_scratch_ == plan.delegations) return;

  // Diff installed vs desired by target and notify the affected delegates.
  // Revokes go out before assigns so a delegate whose duty moves never
  // holds two entries for the same target.
  const auto& old_plan = plan.delegations;
  const auto& new_plan = plan_scratch_;
  for (const auto& [target, delegate] : old_plan) {
    const auto it = std::lower_bound(
        new_plan.begin(), new_plan.end(), target,
        [](const auto& d, NodeId t) { return d.first < t; });
    if (it == new_plan.end() || it->first != target ||
        it->second != delegate) {
      SendDelegation(node, delegate, target, /*assign=*/false);
    }
  }
  for (const auto& [target, delegate] : new_plan) {
    const auto it = std::lower_bound(
        old_plan.begin(), old_plan.end(), target,
        [](const auto& d, NodeId t) { return d.first < t; });
    if (it == old_plan.end() || it->first != target ||
        it->second != delegate) {
      SendDelegation(node, delegate, target, /*assign=*/true);
    }
  }
  ArityPlanOf(node).delegations = plan_scratch_;
}

void DupProtocol::HandleDelegationControl(const Message& message) {
  const NodeId at = message.to;
  // Delegator departed while the message was in flight: the relay sweep in
  // OnNodeRemoved already cleared its duties; a late assign would strand
  // an entry no revoke can ever reach.
  if (!tree()->Contains(message.from)) return;
  auto& relays = ArityPlanOf(at).relays;
  const auto key = std::make_pair(message.from, message.subject);
  auto it = std::lower_bound(relays.begin(), relays.end(), key);
  if (message.type == MessageType::kSubscribe) {
    if (it == relays.end() || *it != key) relays.insert(it, key);
  } else {
    if (it != relays.end() && *it == key) relays.erase(it);
  }
}

void DupProtocol::SendDelegation(NodeId from, NodeId delegate, NodeId target,
                                 bool assign) {
  if (!tree()->Contains(delegate)) return;  // Churn repair pending.
  Message msg;
  msg.type = assign ? MessageType::kSubscribe : MessageType::kUnsubscribe;
  msg.from = from;
  msg.to = delegate;
  msg.subject = target;
  msg.subject2 = from;  // Delegation marker (see HandleProtocolMessage).
  network()->Send(msg);
}

// ---------------------------------------------------------------------------
// Explicit subscriptions (pub/sub extension).
// ---------------------------------------------------------------------------

void DupProtocol::ForceSubscribe(NodeId node) {
  forced_.insert(node);
  if (node == tree()->root()) return;
  if (!SlistOf(node).HasSelf()) ProcessSubscribe(node, kSelfBranch, node);
}

void DupProtocol::ForceUnsubscribe(NodeId node) {
  forced_.erase(node);
  if (node == tree()->root()) return;
  if (SlistOf(node).HasSelf() && !Interested(node)) {
    ProcessUnsubscribe(node, kSelfBranch);
  }
}

// ---------------------------------------------------------------------------
// Churn (paper Section III-C).
// ---------------------------------------------------------------------------

void DupProtocol::OnSplitJoined(NodeId node, NodeId parent, NodeId child) {
  // Resolve both slots before taking references: creating the newcomer's
  // state may grow the slab arrays.
  const uint32_t parent_slot = DupSlotOf(parent);
  const uint32_t node_slot = DupSlotOf(node);
  SubscriberList& parent_slist = dup_states_.ColdAt(parent_slot).slist;
  const auto inherited = parent_slist.Get(child);
  if (!inherited.has_value()) return;
  // The parent's entry for the split branch is re-keyed to the newcomer,
  // which inherits it and becomes an intermediate virtual-path node. This
  // is a one-hop local handover between neighbours ("N3 notifies N3' that
  // N6 is in its subscriber list").
  parent_slist.Remove(child);
  parent_slist.Set(node, *inherited, Now());
  dup_states_.ColdAt(node_slot).slist.Set(child, *inherited, Now());
  recorder()->AddHops(metrics::HopClass::kControl);
  // Subscriber values are unchanged at the parent (only the branch key
  // moved), so its plan is stable; the newcomer's list grew from empty.
  RebalanceFanOut(node);
  RebalanceFanOut(parent);
}

void DupProtocol::OnGracefulLeave(NodeId node) {
  // End-of-virtual-path courtesy: withdraw own interest before departing
  // so upstream state is cleaned by messages rather than timeouts.
  if (node != tree()->root() && SlistOf(node).HasSelf()) {
    ProcessUnsubscribe(node, kSelfBranch);
  }
}

NodeId DupProtocol::RepresentativeOf(NodeId node) const {
  const SubscriberList* slist = FindSubscriberList(node);
  if (slist == nullptr || slist->empty()) return kInvalidNode;
  if (slist->size() >= 2) return node;
  return slist->Sole().second;
}

void DupProtocol::OnNodeRemoved(NodeId node, NodeId former_parent,
                                const std::vector<NodeId>& former_children,
                                bool was_root, NodeId new_root) {
  // The tree already released the node's registry slot; the raw id -> slot
  // mapping still resolves its lingering state for these erases.
  dup_states_.Erase(tree()->registry(), node);
  arity_plans_.Erase(tree()->registry(), node);
  EraseState(node);
  forced_.erase(node);

  if (dup_options_.max_arity > 0) {
    // Sweep delegation state that mentions the dead node: relay duties it
    // delegated (or that target it) are void, and plans that used it as a
    // delegate must re-route their overflow. Collect holders first (the
    // slab's visitor is read-only), then mutate and re-plan each in
    // ascending id order (determinism contract).
    std::vector<NodeId> affected;
    arity_plans_.ForEachById(tree()->registry(), [&](NodeId holder,
                                                     const ArityPlan& plan) {
      for (const auto& [delegator, target] : plan.relays) {
        if (delegator == node || target == node) {
          affected.push_back(holder);
          return;
        }
      }
      for (const auto& [target, delegate] : plan.delegations) {
        if (target == node || delegate == node) {
          affected.push_back(holder);
          return;
        }
      }
    });
    for (NodeId holder : affected) {
      ArityPlan& plan = ArityPlanOf(holder);
      auto mentions_dead = [node](const std::pair<NodeId, NodeId>& e) {
        return e.first == node || e.second == node;
      };
      plan.relays.erase(std::remove_if(plan.relays.begin(),
                                       plan.relays.end(), mentions_dead),
                        plan.relays.end());
      plan.delegations.erase(
          std::remove_if(plan.delegations.begin(), plan.delegations.end(),
                         mentions_dead),
          plan.delegations.end());
      // Re-plan immediately so the direct-fan-out bound holds even before
      // the unsubscribe cascade repairs the subscriber entries.
      RebalanceFanOut(holder);
    }
  }

  if (!was_root) {
    // Failure cases 2/3/4 upstream side: the parent's keep-alive to the
    // dead child expires and the branch entry is dropped, cascading
    // upstream as needed.
    ProcessUnsubscribe(former_parent, /*branch=*/node);
  }

  // Downstream side: every orphaned child that lies on a virtual path
  // detects the lost parent and re-announces its branch representative to
  // its new parent (cases 3 and 4; for a failed root, case 5: the
  // announcements rebuild the new authority's subscriber list).
  for (NodeId child : former_children) {
    if (child == new_root) continue;
    const NodeId rep = RepresentativeOf(child);
    if (rep == kInvalidNode) continue;
    SendUp(child, MessageType::kSubscribe, rep);
  }
}

void DupProtocol::OnSoftStateRefresh() {
  const NodeId root = tree()->root();
  // Ascending id order, so the refresh burst is identical across runs
  // (determinism contract).
  std::vector<NodeId> on_path;
  dup_states_.ForEachById(
      tree()->registry(),
      [&](NodeId node, const DupHot&, const DupCold& cold) {
        if (node == root || !tree()->Contains(node)) return;
        if (cold.slist.empty()) return;
        on_path.push_back(node);
      });
  for (NodeId node : on_path) {
    // Not SendUp(): a refresh announcement rides no query, so it is never
    // free_ride even under the piggyback-subscribe ablation.
    Message msg;
    msg.type = MessageType::kSubscribe;
    msg.from = node;
    msg.to = tree()->Parent(node);
    msg.subject = RepresentativeOf(node);
    network()->Send(msg);
  }
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

bool DupProtocol::InDupTree(NodeId node) {
  const SubscriberList& slist = SlistOf(node);
  if (node == tree()->root()) return !slist.empty();
  return slist.size() >= 2 || slist.HasSelf();
}

bool DupProtocol::OnVirtualPath(NodeId node) {
  return !SlistOf(node).empty();
}

size_t DupProtocol::MaxSubscriberListSize() const {
  size_t max_size = 0;
  dup_states_.ForEach(
      [&max_size](NodeId, const DupHot&, const DupCold& cold) {
        max_size = std::max(max_size, cold.slist.size());
      });
  return max_size;
}

DupProtocol::TreeStats DupProtocol::ComputeTreeStats() const {
  TreeStats stats;
  const NodeId root = tree()->root();
  dup_states_.ForEach([&](NodeId node, const DupHot&, const DupCold& cold) {
    if (!tree()->Contains(node) || cold.slist.empty()) return;
    ++stats.virtual_path;
    const bool self = cold.slist.HasSelf();
    const bool branch_point = node != root && cold.slist.size() >= 2;
    if (self) ++stats.interested;
    if (branch_point) ++stats.branch_points;
    if (self || branch_point || node == root) ++stats.dup_tree;
  });
  return stats;
}

void DupProtocol::VisitSubscriberStates(
    const std::function<void(NodeId, const SubscriberList&)>& fn) const {
  dup_states_.ForEachById(
      tree()->registry(),
      [&fn](NodeId node, const DupHot&, const DupCold& cold) {
        fn(node, cold.slist);
      });
}

const SubscriberList* DupProtocol::FindSubscriberList(NodeId node) const {
  const uint32_t slot = dup_states_.FindSlot(tree()->registry(), node);
  if (slot == decltype(dup_states_)::kNoSlot) return nullptr;
  return &dup_states_.ColdAt(slot).slist;
}

DupProtocol::FanOutState DupProtocol::FanOutOf(NodeId node) const {
  static const ArityPlan kNoPlan;
  const ArityPlan* found = FindArityPlan(node);
  const ArityPlan& plan = found != nullptr ? *found : kNoPlan;
  return {FindSubscriberList(node), &plan.delegations, &plan.relays};
}

void DupProtocol::VisitFanOutStates(
    const std::function<void(NodeId, const FanOutState&)>& fn) const {
  dup_states_.ForEachById(
      tree()->registry(),
      [&](NodeId node, const DupHot&, const DupCold&) {
        fn(node, FanOutOf(node));
      });
}

size_t DupProtocol::MaxDirectFanOut() const {
  size_t max_fan_out = 0;
  dup_states_.ForEach([&](NodeId node, const DupHot&, const DupCold& cold) {
    if (!tree()->Contains(node)) return;
    // Push messages this node sends for one update: its non-delegated
    // subscribers plus the relay duties it accepted.
    const ArityPlan* plan = FindArityPlan(node);
    const size_t direct = cold.slist.SubscribersSorted(node).size() -
                          (plan != nullptr ? plan->delegations.size() : 0);
    const size_t relays = plan != nullptr ? plan->relays.size() : 0;
    max_fan_out = std::max(max_fan_out, direct + relays);
  });
  return max_fan_out;
}

void DupProtocol::ReconcileRelays() {
  if (dup_options_.max_arity == 0) return;
  // Authoritative state is the delegators' in-memory plans; every live
  // delegate's relay set must be exactly the duties those plans assign it.
  std::vector<std::pair<NodeId, std::pair<NodeId, NodeId>>> expected;
  std::vector<NodeId> holders;
  arity_plans_.ForEach([&](NodeId node, const ArityPlan& plan) {
    if (!plan.relays.empty()) holders.push_back(node);
    if (!tree()->Contains(node)) return;
    for (const auto& [target, delegate] : plan.delegations) {
      if (!tree()->Contains(delegate)) continue;
      expected.push_back({delegate, {node, target}});
    }
  });
  for (NodeId holder : holders) ArityPlanOf(holder).relays.clear();
  // Sorted by (delegate, delegator, target), so each delegate's relay set
  // is rebuilt in its canonical (delegator, target) order.
  std::sort(expected.begin(), expected.end());
  for (const auto& [delegate, duty] : expected) {
    ArityPlanOf(delegate).relays.push_back(duty);
  }
}

void DupProtocol::PruneEntriesNotAnnouncedSince(sim::SimTime cutoff) {
  // Collect first: the unsubscribe cascade mutates lists while we scan.
  // Sorted (node, branch) order keeps the emitted message burst
  // deterministic regardless of slab slot order.
  std::vector<std::pair<NodeId, NodeId>> expired;
  dup_states_.ForEach([&](NodeId node, const DupHot&, const DupCold& cold) {
    if (!tree()->Contains(node)) return;
    for (const SubscriberList::Entry& entry : cold.slist.entries()) {
      if (entry.branch == kSelfBranch) continue;  // Local interest only.
      if (entry.announced < cutoff) expired.emplace_back(node, entry.branch);
    }
  });
  std::sort(expired.begin(), expired.end());
  for (const auto& [node, branch] : expired) {
    ProcessUnsubscribe(node, branch);
  }
}

}  // namespace dupnet::core
