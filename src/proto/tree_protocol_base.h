#ifndef DUP_PROTO_TREE_PROTOCOL_BASE_H_
#define DUP_PROTO_TREE_PROTOCOL_BASE_H_

#include <functional>

#include "cache/access_tracker.h"
#include "cache/index_cache.h"
#include "core/node_registry.h"
#include "net/overlay_network.h"
#include "proto/protocol.h"
#include "topo/tree.h"

namespace dupnet::proto {

class CupInterest;

/// Shared machinery of PCX, CUP and DUP: the path-caching query/reply flow
/// along the index search tree, per-node caches, and access-tracking-based
/// interest measurement. Subclasses add the propagation behaviour.
///
/// Query flow (paper Section III-A): a query at n is served locally when
/// the cache holds a valid copy; otherwise the request travels parent-ward
/// and the first node with a valid copy replies along the reverse path,
/// with every node on that path caching the reply. The authority (root)
/// always serves the current version. Query latency is the hop count the
/// request traveled; every message hop is charged to the cost metric by the
/// network layer.
///
/// Per-node state lives in a core::NodeSlab indexed by the tree's
/// NodeRegistry (flat slot-addressed storage; docs/scaling.md). State for
/// every tree node is created eagerly at construction — a fresh state is
/// observationally identical to an absent one (empty cache, idle tracker),
/// and eager slots keep the query hot path allocation-free. Request and
/// reply forwarding reuse one scratch message, so a full steady-state run
/// performs no heap allocation in this layer.
///
/// The layout is cache-conscious (docs/profiling.md): the slab entry holds
/// only what a dispatch touches — the cache entry with its hit/miss
/// counters and the interest-ring cursors — while the ring timestamps live
/// packed in one protocol-owned arena, strided by slab slot. A query
/// therefore costs one slab line plus one arena line, instead of striding
/// a large struct and chasing a per-node heap-allocated ring.
class TreeProtocolBase : public Protocol {
 public:
  TreeProtocolBase(net::OverlayNetwork* network, topo::IndexSearchTree* tree,
                   const ProtocolOptions& options);

  void OnLocalQuery(NodeId node) final;
  void OnMessage(const net::Message& message) final;
  void OnRootPublish(IndexVersion version, sim::SimTime expiry) override;

  /// The newest version the authority has published (0 before the first).
  IndexVersion latest_version() const { return latest_version_; }
  sim::SimTime latest_expiry() const { return latest_expiry_; }

  /// Test/observability accessors. CacheOf lazily creates empty state for
  /// nodes that have not been touched yet.
  const cache::IndexCache& CacheOf(NodeId node);
  bool NodeInterested(NodeId node);

  /// Read-only visit of every node's cache, in ascending node order (audit
  /// introspection; never creates state).
  void VisitCaches(
      const std::function<void(NodeId, const cache::IndexCache&)>& fn) const;

  const ProtocolOptions& options() const { return options_; }

 protected:
  /// CUP's interest machinery is a component of its host protocol (CUP,
  /// or adaptive in its CUP regime) and sends through the host.
  friend class CupInterest;

  /// Per-dispatch node state, packed for one-cache-line access. The
  /// interest tracker's timestamps live in the strided stamp arena (see
  /// class comment); only the ring cursors sit here.
  struct BaseNodeState {
    cache::IndexCache cache;
    uint32_t tracker_head = 0;
    uint32_t tracker_count = 0;

    /// Returns the state to its initial condition in place (slab slot
    /// recycling after churn). Stale arena stamps are masked by the zero
    /// count.
    void Reset() {
      cache.Reset();
      tracker_head = 0;
      tracker_count = 0;
    }
  };

  /// Called after any query (local or forwarded request) is observed at
  /// `node` and recorded in its tracker. Subclasses hook interest logic
  /// (subscribe/register) here.
  virtual void AfterQueryObserved(NodeId node) = 0;

  /// Called when a request from the downstream neighbour `from_child`
  /// arrives at `at` (before serving/forwarding). CUP uses this to track
  /// per-branch demand; default no-op.
  virtual void AfterRequestObserved(NodeId at, NodeId from_child);

  /// Called only for queries issued locally at `node` (not forwarded
  /// requests), after AfterQueryObserved. The adaptive controller hooks
  /// its query-rate measurement here; default no-op.
  virtual void AfterLocalQuery(NodeId node);

  /// Messages the base flow does not consume (push, subscribe, ...).
  virtual void HandleProtocolMessage(const net::Message& message) = 0;

  sim::Engine* engine() const { return network_->engine(); }
  net::OverlayNetwork* network() const { return network_; }
  topo::IndexSearchTree* tree() const { return tree_; }
  metrics::Recorder* recorder() const { return network_->recorder(); }
  sim::SimTime Now() const { return engine()->Now(); }

  /// State of `node`, created (or re-initialised on a recycled slot) on
  /// first access; for a departed node, its lingering state.
  BaseNodeState& StateOf(NodeId node);
  bool HasState(NodeId node) const;
  void EraseState(NodeId node);

  /// The copy the authority hands out right now: the current version with
  /// a freshly stamped TTL (per-copy mode) or the version's original expiry
  /// (absolute mode). The authority itself never goes stale.
  cache::IndexEntry AuthorityEntry() const;

  /// True if `entry` has been superseded by a newer published version.
  bool IsStale(const cache::IndexEntry& entry) const;

  /// The entry a node installs for a copy received with the sender's
  /// expiry: remaining TTL is inherited as-is (never extended) — a copy is
  /// only re-stamped by the authority itself.
  cache::IndexEntry MakeCacheEntry(IndexVersion version,
                                   sim::SimTime sender_expiry) const;

 private:
  void HandleRequest(const net::Message& message);
  void HandleReply(const net::Message& message);
  /// Serves `request` from `server` with `entry`, retracing the recorded
  /// route.
  void SendReply(NodeId server, const net::Message& request,
                 const cache::IndexEntry& entry);

  /// Slab slot of `node`'s state (creating/re-initialising like StateOf),
  /// with the stamp arena guaranteed to cover it.
  uint32_t StateSlotOf(NodeId node);
  /// Records one observed query in slot `slot`'s interest ring.
  void RecordQueryAt(uint32_t slot, BaseNodeState& state);

  net::OverlayNetwork* network_;
  topo::IndexSearchTree* tree_;
  ProtocolOptions options_;
  core::NodeSlab<BaseNodeState> states_;
  /// Interest-ring timestamps for every slab slot, packed contiguously:
  /// slot i owns [i * tracker_stride_, (i + 1) * tracker_stride_).
  std::vector<sim::SimTime> tracker_stamps_;
  /// Ring capacity per slot: threshold_c + 1 (see cache::AccessTracker —
  /// that bound is exact for the interest decision).
  uint32_t tracker_stride_;
  IndexVersion latest_version_ = 0;
  sim::SimTime latest_expiry_ = 0.0;
  /// Reused for every request/reply build and forward. Safe because the
  /// four paths that use it never nest: Send copies into the network's
  /// in-flight pool before returning.
  net::Message scratch_;
};

}  // namespace dupnet::proto

#endif  // DUP_PROTO_TREE_PROTOCOL_BASE_H_
