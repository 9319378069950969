#include "proto/tree_protocol_base.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/hugepage.h"

namespace dupnet::proto {

using net::Message;
using net::MessageType;

TreeProtocolBase::TreeProtocolBase(net::OverlayNetwork* network,
                                   topo::IndexSearchTree* tree,
                                   const ProtocolOptions& options)
    : network_(network),
      tree_(tree),
      options_(options),
      tracker_stride_(options.threshold_c + 1) {
  DUP_CHECK(network != nullptr);
  DUP_CHECK(tree != nullptr);
  DUP_CHECK_GT(options.ttl, 0.0);
  // Eager state for every current tree node: fresh state is observationally
  // absent state, and pre-sizing the slab (and the stamp arena with it)
  // here keeps first touches on the query hot path allocation-free.
  states_.Reserve(tree->registry());
  for (NodeId node : tree->NodesPreOrder()) StateOf(node);
  scratch_.route.reserve(tree->MaxDepth() + 2);
}

uint32_t TreeProtocolBase::StateSlotOf(NodeId node) {
  const uint32_t slot = states_.SlotOrInit(
      tree_->registry(), node,
      [](BaseNodeState& state) { state.Reset(); });
  const size_t need = (static_cast<size_t>(slot) + 1) * tracker_stride_;
  if (tracker_stamps_.size() < need) {
    // Grow to cover the whole registry at once so churn cannot trigger a
    // resize per joining node.
    util::ResizeWithHugePages(
        tracker_stamps_,
        std::max(need, tree_->registry().slot_count() *
                           static_cast<size_t>(tracker_stride_)));
  }
  return slot;
}

void TreeProtocolBase::RecordQueryAt(uint32_t slot, BaseNodeState& state) {
  cache::AccessTracker::RecordStamp(
      Now(), &tracker_stamps_[static_cast<size_t>(slot) * tracker_stride_],
      tracker_stride_, &state.tracker_head, &state.tracker_count);
}

TreeProtocolBase::BaseNodeState& TreeProtocolBase::StateOf(NodeId node) {
  return states_.AtSlot(StateSlotOf(node));
}

bool TreeProtocolBase::HasState(NodeId node) const {
  return states_.Find(tree_->registry(), node) != nullptr;
}

void TreeProtocolBase::EraseState(NodeId node) {
  states_.Erase(tree_->registry(), node);
}

const cache::IndexCache& TreeProtocolBase::CacheOf(NodeId node) {
  return StateOf(node).cache;
}

bool TreeProtocolBase::NodeInterested(NodeId node) {
  const uint32_t slot = StateSlotOf(node);
  const BaseNodeState& state = states_.AtSlot(slot);
  return cache::AccessTracker::CountStamps(
             Now(), options_.ttl,
             &tracker_stamps_[static_cast<size_t>(slot) * tracker_stride_],
             tracker_stride_, state.tracker_head,
             state.tracker_count) > options_.threshold_c;
}

void TreeProtocolBase::VisitCaches(
    const std::function<void(NodeId, const cache::IndexCache&)>& fn) const {
  states_.ForEachById(tree_->registry(),
                      [&fn](NodeId node, const BaseNodeState& state) {
                        fn(node, state.cache);
                      });
}

void TreeProtocolBase::AfterRequestObserved(NodeId /*at*/,
                                            NodeId /*from_child*/) {}

void TreeProtocolBase::AfterLocalQuery(NodeId /*node*/) {}

cache::IndexEntry TreeProtocolBase::AuthorityEntry() const {
  DUP_CHECK_GT(latest_version_, 0u) << "authority has not published yet";
  if (options_.per_copy_ttl) {
    return cache::IndexEntry{latest_version_, Now() + options_.ttl};
  }
  return cache::IndexEntry{latest_version_, latest_expiry_};
}

bool TreeProtocolBase::IsStale(const cache::IndexEntry& entry) const {
  return entry.version < latest_version_;
}

cache::IndexEntry TreeProtocolBase::MakeCacheEntry(
    IndexVersion version, sim::SimTime sender_expiry) const {
  return cache::IndexEntry{version, sender_expiry};
}

void TreeProtocolBase::OnRootPublish(IndexVersion version,
                                     sim::SimTime expiry) {
  DUP_CHECK_GE(version, latest_version_);
  latest_version_ = version;
  latest_expiry_ = expiry;
  StateOf(tree_->root()).cache.Put(cache::IndexEntry{version, expiry});
}

void TreeProtocolBase::OnLocalQuery(NodeId node) {
  recorder()->OnQueryIssued();
  const uint32_t slot = StateSlotOf(node);
  BaseNodeState& state = states_.AtSlot(slot);
  RecordQueryAt(slot, state);
  AfterQueryObserved(node);
  AfterLocalQuery(node);

  if (node == tree_->root()) {
    // The authority owns the index; its answer is always current.
    recorder()->OnQueryServed(/*latency_hops=*/0, /*stale=*/false);
    return;
  }
  if (auto entry = state.cache.Get(Now())) {
    recorder()->OnQueryServed(/*latency_hops=*/0, IsStale(*entry));
    return;
  }

  Message& request = scratch_;
  request.ResetKeepRoute();
  request.type = MessageType::kRequest;
  request.from = node;
  request.to = tree_->Parent(node);
  request.origin = node;
  request.hops = 1;  // Hops traveled once this send is delivered.
  request.route.push_back(node);
  network_->Send(request);
}

void TreeProtocolBase::OnMessage(const Message& message) {
  switch (message.type) {
    case MessageType::kRequest:
      HandleRequest(message);
      return;
    case MessageType::kReply:
      HandleReply(message);
      return;
    default:
      HandleProtocolMessage(message);
      return;
  }
}

void TreeProtocolBase::HandleRequest(const Message& message) {
  const NodeId at = message.to;
  const uint32_t slot = StateSlotOf(at);
  BaseNodeState& state = states_.AtSlot(slot);
  if (options_.count_forwarded_queries) {
    RecordQueryAt(slot, state);
  }
  AfterRequestObserved(at, message.from);
  AfterQueryObserved(at);

  if (at == tree_->root()) {
    SendReply(at, message, AuthorityEntry());
    return;
  }
  if (auto entry = state.cache.Peek(Now())) {
    SendReply(at, message, *entry);
    return;
  }

  // Cache miss: keep climbing toward the authority.
  Message& forward = scratch_;
  forward = message;  // Route copy-assign reuses the scratch capacity.
  forward.from = at;
  forward.to = tree_->Parent(at);
  forward.hops = message.hops + 1;
  forward.route.push_back(at);
  network_->Send(forward);
}

void TreeProtocolBase::SendReply(NodeId server, const Message& request,
                                 const cache::IndexEntry& entry) {
  DUP_CHECK(!request.route.empty());
  Message& reply = scratch_;
  reply.ResetKeepRoute();
  reply.type = MessageType::kReply;
  reply.origin = request.origin;
  reply.hops = request.hops;  // Frozen: the paper's latency metric.
  reply.version = entry.version;
  reply.expiry = entry.expiry;
  reply.stale = IsStale(entry);
  reply.route = request.route;
  reply.from = server;
  reply.to = reply.route.back();
  reply.route.pop_back();
  network_->Send(reply);
}

void TreeProtocolBase::HandleReply(const Message& message) {
  const NodeId at = message.to;
  if (options_.cache_passing_replies || at == message.origin) {
    StateOf(at).cache.Put(MakeCacheEntry(message.version, message.expiry));
  }
  if (at == message.origin) {
    DUP_CHECK(message.route.empty());
    recorder()->OnQueryServed(message.hops, message.stale);
    return;
  }
  DUP_CHECK(!message.route.empty());
  Message& forward = scratch_;
  forward = message;
  forward.from = at;
  forward.to = forward.route.back();
  forward.route.pop_back();
  network_->Send(forward);
}

}  // namespace dupnet::proto
