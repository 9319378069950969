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

// ---------------------------------------------------------------------------
// CupInterest.
// ---------------------------------------------------------------------------

CupInterest::CupInterest(TreeProtocolBase* host, const CupOptions& options)
    : host_(host), options_(options) {
  // Eager interest tables for every current tree node, with an inactive
  // slot per child: steady-state demand recording touches preallocated
  // storage only. (+1 headroom absorbs one churn-gained branch.)
  const topo::IndexSearchTree* tree = host_->tree();
  for (NodeId node : tree->NodesPreOrder()) {
    std::vector<BranchSlot>& branches = states_.ColdAt(SlotOf(node)).branches;
    const auto& children = tree->Children(node);
    branches.reserve(children.size() + 1);
    for (NodeId child : children) {
      BranchSlot& slot = branches.emplace_back();
      slot.child = child;
      slot.demand.Reset(host_->options().ttl, DemandRingThreshold());
    }
  }
}

uint32_t CupInterest::DemandRingThreshold() const {
  // kDemandWindow asks "count > 0" (bar 0); kPopularityThreshold asks
  // "count >= p", which saturating at p answers exactly (bar p - 1).
  // p == 0 is the degenerate "always push": ">= 0" holds even for a branch
  // with no recorded demand at all, so the ring needs no stamps (bar 0) —
  // it must NOT fall back to the demand-window bar, which would imply the
  // ring is consulted. kInvestmentReturn never reads the ring.
  if (options_.policy == CupPushPolicy::kPopularityThreshold) {
    return options_.popularity_threshold == 0
               ? 0
               : options_.popularity_threshold - 1;
  }
  return 0;
}

uint32_t CupInterest::SlotOf(NodeId node) {
  return states_.SlotOrInit(host_->tree()->registry(), node,
                            [](CupHot& hot, CupCold& cold) {
                              hot.interest_notified = false;
                              hot.last_forwarded = 0;
                              cold.branches.clear();
                            });
}

CupInterest::BranchSlot* CupInterest::FindBranch(
    std::vector<BranchSlot>& branches, NodeId child) {
  for (BranchSlot& slot : branches) {
    if (slot.child == child && slot.active) return &slot;
  }
  return nullptr;
}

const CupInterest::BranchSlot* CupInterest::FindBranch(
    const std::vector<BranchSlot>& branches, NodeId child) {
  for (const BranchSlot& slot : branches) {
    if (slot.child == child && slot.active) return &slot;
  }
  return nullptr;
}

CupInterest::BranchSlot& CupInterest::ActivateBranch(
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
  slot.demand.Reset(host_->options().ttl, DemandRingThreshold());
  return slot;
}

void CupInterest::RecordDemand(NodeId at, NodeId from_child) {
  BranchSlot& branch =
      ActivateBranch(states_.ColdAt(SlotOf(at)).branches, from_child);
  branch.demand.RecordQuery(host_->Now());
  branch.credit = std::min(branch.credit + 1.0, options_.max_credit);
}

uint32_t CupInterest::BranchDemandCount(std::vector<BranchSlot>& branches,
                                        NodeId child) {
  const BranchSlot* branch = FindBranch(branches, child);
  if (branch == nullptr) return 0;
  return branch->demand.CountInWindow(host_->Now());
}

bool CupInterest::DecidePush(std::vector<BranchSlot>& branches, NodeId child) {
  switch (options_.policy) {
    case CupPushPolicy::kDemandWindow:
      return BranchDemandCount(branches, child) > 0;
    case CupPushPolicy::kPopularityThreshold:
      // popularity_threshold == 0 pushes unconditionally: the comparison
      // holds for an empty window (count 0) and even for a branch that
      // never became an entry.
      return BranchDemandCount(branches, child) >=
             options_.popularity_threshold;
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

bool CupInterest::WouldPushTo(NodeId node, NodeId child) {
  std::vector<BranchSlot>& branches = states_.ColdAt(SlotOf(node)).branches;
  // Probe without side effects: investment-return would spend credit.
  if (options_.policy == CupPushPolicy::kInvestmentReturn) {
    const BranchSlot* branch = FindBranch(branches, child);
    return branch != nullptr && branch->credit >= 1.0;
  }
  return DecidePush(branches, child);
}

void CupInterest::SendRegister(NodeId node) {
  Message msg;
  msg.type = MessageType::kInterestRegister;
  msg.from = node;
  msg.to = host_->tree()->Parent(node);
  msg.subject = node;
  host_->network()->Send(msg);
}

void CupInterest::NotifyIfInterested(NodeId node) {
  if (node == host_->tree()->root()) return;
  CupHot& hot = states_.HotAt(SlotOf(node));
  if (hot.interest_notified || !host_->NodeInterested(node)) return;
  hot.interest_notified = true;
  SendRegister(node);
}

void CupInterest::HandleRegister(const Message& message) {
  // Registrations can cross topology changes in flight, exactly like DUP's
  // control messages: a departed sender's registration is stale
  // (RenotifyOrphans already re-registered the orphans), and one whose edge
  // was split belongs at the sender's current parent — otherwise this node
  // would track demand for a branch it no longer has.
  const topo::IndexSearchTree* tree = host_->tree();
  const NodeId from = message.from;
  if (!tree->Contains(from) || from == tree->root()) return;
  if (const NodeId parent = tree->Parent(from); parent != message.to) {
    Message forward = message;
    forward.to = parent;
    forward.seq = 0;  // A fresh transmission, reliably re-tracked.
    host_->network()->Send(forward);
    return;
  }
  // An explicit notification counts as one unit of branch demand.
  RecordDemand(message.to, from);
}

void CupInterest::ForwardPush(NodeId at, IndexVersion version,
                              sim::SimTime expiry) {
  const topo::IndexSearchTree* tree = host_->tree();
  if (!tree->Contains(at)) return;
  std::vector<BranchSlot>& branches = states_.ColdAt(SlotOf(at)).branches;
  for (NodeId child : tree->Children(at)) {
    if (!DecidePush(branches, child)) continue;
    Message push;
    push.type = MessageType::kPush;
    push.from = at;
    push.to = child;
    push.version = version;
    push.expiry = expiry;
    host_->network()->Send(push);
  }
}

bool CupInterest::MarkForwarded(NodeId at, IndexVersion version) {
  CupHot& hot = states_.HotAt(SlotOf(at));
  if (version <= hot.last_forwarded) return false;
  hot.last_forwarded = version;
  return true;
}

bool CupInterest::HandOverSplit(NodeId node, NodeId parent, NodeId child) {
  const uint32_t parent_slot =
      states_.FindSlot(host_->tree()->registry(), parent);
  if (parent_slot == decltype(states_)::kNoSlot) return false;
  BranchSlot* branch = FindBranch(states_.ColdAt(parent_slot).branches, child);
  if (branch == nullptr) return false;
  // Neither endpoint of the old edge loses the branch's push eligibility —
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
      ActivateBranch(states_.ColdAt(SlotOf(node)).branches, child);
  inherited.credit = credit;
  inherited.demand = demand;
  return true;
}

void CupInterest::Erase(NodeId node) {
  // The tree already released the node's registry slot; the raw id -> slot
  // mapping still resolves its lingering state for this erase.
  states_.Erase(host_->tree()->registry(), node);
}

void CupInterest::RenotifyOrphans(const std::vector<NodeId>& former_children) {
  // Pure demand tracking re-converges by itself as query traffic flows;
  // only registered interest needs the explicit re-notify.
  const topo::IndexSearchTree* tree = host_->tree();
  for (NodeId child : former_children) {
    if (!tree->Contains(child) || child == tree->root()) continue;
    if (!states_.HotAt(SlotOf(child)).interest_notified) continue;
    SendRegister(child);
  }
}

void CupInterest::Reregister() {
  const topo::IndexSearchTree* tree = host_->tree();
  scratch_.clear();
  states_.ForEach([&](NodeId node, const CupHot& hot, const CupCold&) {
    if (!hot.interest_notified) return;
    if (!tree->Contains(node) || node == tree->root()) return;
    scratch_.push_back(node);
  });
  // Slab slot order is churn-dependent; sort so the refresh burst is
  // deterministic.
  std::sort(scratch_.begin(), scratch_.end());
  for (NodeId node : scratch_) SendRegister(node);
}

void CupInterest::RearmNotifications() {
  scratch_.clear();
  states_.ForEach([&](NodeId node, const CupHot& hot, const CupCold&) {
    if (hot.interest_notified) scratch_.push_back(node);
  });
  for (NodeId node : scratch_) {
    states_.HotAt(states_.FindSlot(host_->tree()->registry(), node))
        .interest_notified = false;
  }
}

std::vector<NodeId> CupInterest::NotifiedNodes() const {
  std::vector<NodeId> notified;
  states_.ForEach([&notified](NodeId node, const CupHot& hot, const CupCold&) {
    if (hot.interest_notified) notified.push_back(node);
  });
  std::sort(notified.begin(), notified.end());
  return notified;
}

bool CupInterest::HasBranchEntry(NodeId node, NodeId child) const {
  const uint32_t slot = states_.FindSlot(host_->tree()->registry(), node);
  if (slot == decltype(states_)::kNoSlot) return false;
  return FindBranch(states_.ColdAt(slot).branches, child) != nullptr;
}

// ---------------------------------------------------------------------------
// CupProtocol.
// ---------------------------------------------------------------------------

CupProtocol::CupProtocol(net::OverlayNetwork* network,
                         topo::IndexSearchTree* tree,
                         const ProtocolOptions& options,
                         const CupOptions& cup_options)
    : TreeProtocolBase(network, tree, options), interest_(this, cup_options) {}

void CupProtocol::AfterRequestObserved(NodeId at, NodeId from_child) {
  interest_.RecordDemand(at, from_child);
}

void CupProtocol::AfterQueryObserved(NodeId node) {
  interest_.NotifyIfInterested(node);
}

void CupProtocol::OnRootPublish(IndexVersion version, sim::SimTime expiry) {
  TreeProtocolBase::OnRootPublish(version, expiry);
  interest_.MarkForwarded(tree()->root(), version);
  interest_.ForwardPush(tree()->root(), version, expiry);
}

void CupProtocol::HandleProtocolMessage(const Message& message) {
  switch (message.type) {
    case MessageType::kPush: {
      const NodeId at = message.to;
      StateOf(at).cache.Put(MakeCacheEntry(message.version, message.expiry));
      if (!interest_.MarkForwarded(at, message.version)) return;
      interest_.ForwardPush(at, message.version, message.expiry);
      return;
    }
    case MessageType::kInterestRegister:
      interest_.HandleRegister(message);
      return;
    default:
      DUP_CHECK(false) << "CUP received unexpected message: "
                       << message.ToString();
  }
}

void CupProtocol::OnSoftStateRefresh() { interest_.Reregister(); }

void CupProtocol::OnSplitJoined(NodeId node, NodeId parent, NodeId child) {
  if (interest_.HandOverSplit(node, parent, child)) {
    recorder()->AddHops(metrics::HopClass::kControl);
  }
}

void CupProtocol::OnNodeRemoved(NodeId node, NodeId /*former_parent*/,
                                const std::vector<NodeId>& former_children,
                                bool /*was_root*/, NodeId /*new_root*/) {
  interest_.Erase(node);
  EraseState(node);
  interest_.RenotifyOrphans(former_children);
}

}  // namespace dupnet::proto
