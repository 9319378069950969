#include "proto/cup.h"

#include <algorithm>

#include "util/check.h"
#include "util/str.h"

namespace dupnet::proto {

using net::Message;
using net::MessageType;

std::string_view CupPushPolicyToString(CupPushPolicy policy) {
  switch (policy) {
    case CupPushPolicy::kDemandWindow:
      return "demand-window";
    case CupPushPolicy::kPopularityThreshold:
      return "popularity-threshold";
    case CupPushPolicy::kInvestmentReturn:
      return "investment-return";
  }
  return "unknown";
}

util::Result<CupPushPolicy> ParseCupPushPolicy(std::string_view name) {
  for (CupPushPolicy policy :
       {CupPushPolicy::kDemandWindow, CupPushPolicy::kPopularityThreshold,
        CupPushPolicy::kInvestmentReturn}) {
    if (name == CupPushPolicyToString(policy)) return policy;
  }
  return util::Status::InvalidArgument(util::StrFormat(
      "unknown cup_policy \"%s\"", std::string(name).c_str()));
}

CupProtocol::CupProtocol(net::OverlayNetwork* network,
                         topo::IndexSearchTree* tree,
                         const ProtocolOptions& options,
                         const CupOptions& cup_options)
    : TreeProtocolBase(network, tree, options), cup_options_(cup_options) {
  // Eager interest tables for every current tree node, with an inactive
  // slot per child: steady-state demand recording touches preallocated
  // storage only. (+1 headroom absorbs one churn-gained branch.)
  for (NodeId node : tree->NodesPreOrder()) {
    std::vector<BranchSlot>& branches =
        cup_states_.ColdAt(CupSlotOf(node)).branches;
    const auto& children = tree->Children(node);
    branches.reserve(children.size() + 1);
    for (NodeId child : children) {
      BranchSlot& slot = branches.emplace_back();
      slot.child = child;
      slot.demand.Reset(this->options().ttl, DemandRingThreshold());
    }
  }
}

uint32_t CupProtocol::DemandRingThreshold() const {
  // kDemandWindow asks "count > 0" (bar 0); kPopularityThreshold asks
  // "count >= p", which saturating at p answers exactly (bar p - 1).
  // p == 0 is the degenerate "always push": ">= 0" holds even for a branch
  // with no recorded demand at all, so the ring needs no stamps (bar 0) —
  // it must NOT fall back to the demand-window bar, which would imply the
  // ring is consulted. kInvestmentReturn never reads the ring.
  if (cup_options_.policy == CupPushPolicy::kPopularityThreshold) {
    return cup_options_.popularity_threshold == 0
               ? 0
               : cup_options_.popularity_threshold - 1;
  }
  return 0;
}

uint32_t CupProtocol::CupSlotOf(NodeId node) {
  return cup_states_.SlotOrInit(tree()->registry(), node,
                                [](CupHot& hot, CupCold& cold) {
                                  hot.interest_notified = false;
                                  hot.last_forwarded = 0;
                                  cold.branches.clear();
                                });
}

CupProtocol::BranchSlot* CupProtocol::FindBranch(
    std::vector<BranchSlot>& branches, NodeId child) {
  for (BranchSlot& slot : branches) {
    if (slot.child == child && slot.active) return &slot;
  }
  return nullptr;
}

const CupProtocol::BranchSlot* CupProtocol::FindBranch(
    const std::vector<BranchSlot>& branches, NodeId child) const {
  for (const BranchSlot& slot : branches) {
    if (slot.child == child && slot.active) return &slot;
  }
  return nullptr;
}

CupProtocol::BranchSlot& CupProtocol::ActivateBranch(
    std::vector<BranchSlot>& branches, NodeId child) {
  BranchSlot* inactive = nullptr;
  for (BranchSlot& slot : branches) {
    if (slot.child == child) {
      if (slot.active) return slot;
      inactive = &slot;
      break;
    }
  }
  BranchSlot& slot = inactive != nullptr ? *inactive : branches.emplace_back();
  slot.child = child;
  slot.active = true;
  slot.credit = 0.0;
  slot.demand.Reset(options().ttl, DemandRingThreshold());
  return slot;
}

void CupProtocol::RecordDemand(NodeId at, NodeId from_child) {
  BranchSlot& branch = ActivateBranch(
      cup_states_.ColdAt(CupSlotOf(at)).branches, from_child);
  branch.demand.RecordQuery(Now());
  branch.credit = std::min(branch.credit + 1.0, cup_options_.max_credit);
}

uint32_t CupProtocol::BranchDemandCount(std::vector<BranchSlot>& branches,
                                        NodeId child) {
  const BranchSlot* branch = FindBranch(branches, child);
  if (branch == nullptr) return 0;
  return branch->demand.CountInWindow(Now());
}

bool CupProtocol::DecidePush(std::vector<BranchSlot>& branches, NodeId child) {
  switch (cup_options_.policy) {
    case CupPushPolicy::kDemandWindow:
      return BranchDemandCount(branches, child) > 0;
    case CupPushPolicy::kPopularityThreshold:
      // popularity_threshold == 0 pushes unconditionally: the comparison
      // holds for an empty window (count 0) and even for a branch that
      // never became an entry.
      return BranchDemandCount(branches, child) >=
             cup_options_.popularity_threshold;
    case CupPushPolicy::kInvestmentReturn: {
      BranchSlot* branch = FindBranch(branches, child);
      if (branch == nullptr) return false;
      if (branch->credit < 1.0) return false;
      branch->credit -= 1.0;  // A push spends one earned credit.
      return true;
    }
  }
  return false;
}

bool CupProtocol::WouldPushTo(NodeId node, NodeId child) {
  std::vector<BranchSlot>& branches =
      cup_states_.ColdAt(CupSlotOf(node)).branches;
  // Probe without side effects: investment-return would spend credit.
  if (cup_options_.policy == CupPushPolicy::kInvestmentReturn) {
    const BranchSlot* branch = FindBranch(branches, child);
    return branch != nullptr && branch->credit >= 1.0;
  }
  return DecidePush(branches, child);
}

void CupProtocol::AfterRequestObserved(NodeId at, NodeId from_child) {
  RecordDemand(at, from_child);
}

void CupProtocol::AfterQueryObserved(NodeId node) {
  if (node == tree()->root()) return;
  CupHot& hot = cup_states_.HotAt(CupSlotOf(node));
  if (hot.interest_notified || !NodeInterested(node)) return;
  // One-shot explicit interest notification toward the parent, so a node
  // whose queries are all served locally still gets the next push.
  hot.interest_notified = true;
  Message msg;
  msg.type = MessageType::kInterestRegister;
  msg.from = node;
  msg.to = tree()->Parent(node);
  msg.subject = node;
  network()->Send(msg);
}

void CupProtocol::OnRootPublish(IndexVersion version, sim::SimTime expiry) {
  TreeProtocolBase::OnRootPublish(version, expiry);
  cup_states_.HotAt(CupSlotOf(tree()->root())).last_forwarded = version;
  ForwardPush(tree()->root(), version, expiry);
}

void CupProtocol::ForwardPush(NodeId at, IndexVersion version,
                              sim::SimTime expiry) {
  if (!tree()->Contains(at)) return;
  std::vector<BranchSlot>& branches =
      cup_states_.ColdAt(CupSlotOf(at)).branches;
  for (NodeId child : tree()->Children(at)) {
    if (!DecidePush(branches, child)) continue;
    Message push;
    push.type = MessageType::kPush;
    push.from = at;
    push.to = child;
    push.version = version;
    push.expiry = expiry;
    network()->Send(push);
  }
}

void CupProtocol::HandleProtocolMessage(const Message& message) {
  const NodeId at = message.to;
  switch (message.type) {
    case MessageType::kPush:
      HandlePush(message);
      return;
    case MessageType::kInterestRegister: {
      // Registrations can cross topology changes in flight, exactly like
      // DUP's control messages: a departed sender's registration is stale
      // (OnNodeRemoved already re-registered its orphans), and one whose
      // edge was split belongs at the sender's current parent — otherwise
      // this node would track demand for a branch it no longer has.
      const NodeId from = message.from;
      if (!tree()->Contains(from) || from == tree()->root()) return;
      if (const NodeId parent = tree()->Parent(from); parent != at) {
        Message forward = message;
        forward.to = parent;
        forward.seq = 0;  // A fresh transmission, reliably re-tracked.
        network()->Send(forward);
        return;
      }
      // An explicit notification counts as one unit of branch demand.
      RecordDemand(at, from);
      return;
    }
    default:
      DUP_CHECK(false) << "CUP received unexpected message: "
                       << message.ToString();
  }
}

void CupProtocol::HandlePush(const Message& message) {
  const NodeId at = message.to;
  StateOf(at).cache.Put(MakeCacheEntry(message.version, message.expiry));
  CupHot& hot = cup_states_.HotAt(CupSlotOf(at));
  if (message.version <= hot.last_forwarded) return;
  hot.last_forwarded = message.version;
  ForwardPush(at, message.version, message.expiry);
}

void CupProtocol::OnSoftStateRefresh() {
  std::vector<NodeId> notified;
  cup_states_.ForEach([&](NodeId node, const CupHot& hot, const CupCold&) {
    if (!hot.interest_notified) return;
    if (!tree()->Contains(node) || node == tree()->root()) return;
    notified.push_back(node);
  });
  // Slab slot order is churn-dependent; sort so the refresh burst is
  // deterministic.
  std::sort(notified.begin(), notified.end());
  for (NodeId node : notified) {
    Message msg;
    msg.type = MessageType::kInterestRegister;
    msg.from = node;
    msg.to = tree()->Parent(node);
    msg.subject = node;
    network()->Send(msg);
  }
}

void CupProtocol::OnSplitJoined(NodeId node, NodeId parent, NodeId child) {
  const uint32_t parent_slot = cup_states_.FindSlot(tree()->registry(), parent);
  if (parent_slot == decltype(cup_states_)::kNoSlot) return;
  BranchSlot* branch =
      FindBranch(cup_states_.ColdAt(parent_slot).branches, child);
  if (branch == nullptr) return;
  // The parent's demand record for the split branch now describes the edge
  // to the newcomer, and the newcomer inherits a copy for the child, so
  // neither endpoint of the old edge loses the branch's push eligibility —
  // in particular a child whose one-shot interest notification already
  // fired stays registered along its (new) upstream path. A one-hop local
  // handover between neighbours, mirroring DUP's OnSplitJoined.
  // Deep copies, taken while `branch` is still valid: AccessTracker owns
  // its ring outright (plain timestamps, no slab/owner-tag references), so
  // the copy stays valid across slab slots — including when the newcomer
  // lands on a recycled slot whose previous owner's state was erased.
  const double credit = branch->credit;
  const cache::AccessTracker demand = branch->demand;
  branch->child = node;  // Re-key in place: same payload, new branch.
  // `branch` dies here: creating the newcomer's state may grow the slab.
  BranchSlot& inherited =
      ActivateBranch(cup_states_.ColdAt(CupSlotOf(node)).branches, child);
  inherited.credit = credit;
  inherited.demand = demand;
  recorder()->AddHops(metrics::HopClass::kControl);
}

void CupProtocol::OnNodeRemoved(NodeId node, NodeId /*former_parent*/,
                                const std::vector<NodeId>& former_children,
                                bool /*was_root*/, NodeId /*new_root*/) {
  // The tree already released the node's registry slot; the raw id -> slot
  // mapping still resolves its lingering state for these erases.
  cup_states_.Erase(tree()->registry(), node);
  EraseState(node);
  // Orphans whose own interest was registered with the dead parent
  // re-notify their new parent; pure demand tracking re-converges by
  // itself as query traffic flows.
  for (NodeId child : former_children) {
    if (!tree()->Contains(child) || child == tree()->root()) continue;
    if (!cup_states_.HotAt(CupSlotOf(child)).interest_notified) continue;
    Message msg;
    msg.type = MessageType::kInterestRegister;
    msg.from = child;
    msg.to = tree()->Parent(child);
    msg.subject = child;
    network()->Send(msg);
  }
}

std::vector<NodeId> CupProtocol::NotifiedNodes() const {
  std::vector<NodeId> notified;
  cup_states_.ForEach(
      [&notified](NodeId node, const CupHot& hot, const CupCold&) {
        if (hot.interest_notified) notified.push_back(node);
      });
  std::sort(notified.begin(), notified.end());
  return notified;
}

bool CupProtocol::HasBranchEntry(NodeId node, NodeId child) const {
  const uint32_t slot = cup_states_.FindSlot(tree()->registry(), node);
  if (slot == decltype(cup_states_)::kNoSlot) return false;
  return FindBranch(cup_states_.ColdAt(slot).branches, child) != nullptr;
}

}  // namespace dupnet::proto
