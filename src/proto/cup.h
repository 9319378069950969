#ifndef DUP_PROTO_CUP_H_
#define DUP_PROTO_CUP_H_

#include <string_view>
#include <vector>

#include "cache/access_tracker.h"
#include "core/node_registry.h"
#include "proto/tree_protocol_base.h"
#include "util/status.h"

namespace dupnet::proto {

/// CUP's per-hop push decision ("Based on the benefit and the overhead of
/// pushing the updates, each node determines whether to push the index
/// update further down the tree" — the DUP paper's Section II-B summary of
/// Roussopoulos & Baker's heuristics).
enum class CupPushPolicy {
  /// Forward down a branch iff it showed any demand in the last TTL window
  /// (the default used in the reproduction's evaluation).
  kDemandWindow,
  /// Forward iff the branch's demand in the window exceeds a popularity
  /// threshold — conservative CUP, fewer wasted pushes but more cut-offs.
  kPopularityThreshold,
  /// The CUP paper's investment-return flavour: every observed request
  /// from a branch earns one credit; every push down that branch spends
  /// one. A branch is pushed to while its balance is positive, letting a
  /// history of demand pay for a few quiet cycles.
  kInvestmentReturn,
};

std::string_view CupPushPolicyToString(CupPushPolicy policy);
util::Result<CupPushPolicy> ParseCupPushPolicy(std::string_view name);

struct CupOptions {
  CupPushPolicy policy = CupPushPolicy::kDemandWindow;
  /// kPopularityThreshold: minimum in-window demand to keep pushing.
  uint32_t popularity_threshold = 3;
  /// kInvestmentReturn: credit ceiling (bounds how long a formerly hot
  /// branch keeps receiving pushes after going quiet).
  double max_credit = 4.0;
};

/// CUP's per-node interest machinery, shared by CupProtocol and the CUP
/// regime of core::AdaptiveProtocol.
///
/// Each node passively records the interest of its index-search-tree
/// neighbours — the requests it saw arrive from each downstream branch in
/// the last TTL window, plus one explicit interest notification
/// (kInterestRegister) when a node first becomes interested ("extra
/// messages are used to inform neighbors about their interests"). When an
/// updated index arrives, ForwardPush weighs benefit against overhead under
/// the configured CupPushPolicy and forwards the update hop-by-hop down
/// every branch that qualifies.
///
/// Interest tables live in a core::SplitNodeSlab indexed by the tree's
/// NodeRegistry (docs/scaling.md): each node holds a flat, degree-bounded
/// vector of branch slots (linear scan beats hashing at tree degrees), and
/// per-branch demand uses the same bounded timestamp ring as the interest
/// tracker — every push decision is exactly what the unbounded history
/// would produce, since each policy only compares the in-window count
/// against a fixed bar. Slots are preallocated per current child but stay
/// *inactive* until the branch first shows demand, replicating map-entry
/// existence (HasBranchEntry and the cup-registration audit invariant read
/// entry existence, not slot presence). The slab is hot/cold split
/// (docs/profiling.md): the notified-interest flag — touched on every
/// query — packs into the hot array; the branch tables live in the
/// parallel cold array only demand recording and push fan-out stride. The
/// duplicate-push stamp is not here: each host keeps its own (CupProtocol's
/// below, DupHot::last_forwarded for the adaptive protocol).
class CupInterest {
 public:
  /// Preallocates a table for every current node of `host`'s tree. `host`
  /// owns this object and supplies the tree, network and clock.
  CupInterest(TreeProtocolBase* host, const CupOptions& options);

  // Holds its host's address, so a copy would send through the wrong host.
  CupInterest(const CupInterest&) = delete;
  CupInterest& operator=(const CupInterest&) = delete;

  const CupOptions& options() const { return options_; }

  /// Sends `node`'s one-shot interest notification toward its parent the
  /// first time it is interested, so a node whose queries are all served
  /// locally still gets the next push.
  void NotifyIfInterested(NodeId node);

  /// Records one unit of demand from `from_child` at `at`.
  void RecordDemand(NodeId at, NodeId from_child);

  /// A kInterestRegister arriving at `message.to`.
  void HandleRegister(const net::Message& message);

  /// Pushes `version` from `at` down every branch the policy selects.
  void ForwardPush(NodeId at, IndexVersion version, sim::SimTime expiry);

  /// Split handover: the parent's demand record for the split branch now
  /// describes the edge to `node`, and `node` inherits a copy for `child`.
  /// Returns whether the parent held an entry for the branch.
  bool HandOverSplit(NodeId node, NodeId parent, NodeId child);

  /// Drops a departed node's state.
  void Erase(NodeId node);

  /// Orphans whose own interest was registered with a dead parent
  /// re-notify their new parent.
  void RenotifyOrphans(const std::vector<NodeId>& former_children);

  /// Soft-state repair: every node whose one-shot notification may have
  /// been lost re-registers with its parent, refreshing the demand window
  /// it depends on for pushes. Sent in ascending node order.
  void Reregister();

  /// Re-arms every one-shot notification so interested nodes re-register
  /// on their next query (local flag flips only, no messages).
  void RearmNotifications();

  /// Would `node` forward the next update to `child`? Never spends credit.
  bool WouldPushTo(NodeId node, NodeId child);

  // --- Audit introspection (read-only, never creates state). --------------

  /// Nodes whose one-shot interest notification has been sent, ascending.
  std::vector<NodeId> NotifiedNodes() const;

  /// Whether `node` currently holds a demand-branch entry for `child`.
  bool HasBranchEntry(NodeId node, NodeId child) const;

 private:
  struct BranchSlot {
    NodeId child = kInvalidNode;
    /// Replicates hash-map entry existence: a slot is preallocated per
    /// child but only *active* once the branch first records demand.
    bool active = false;
    /// kInvestmentReturn: current credit balance.
    double credit = 0.0;
    /// Bounded ring of the newest demand timestamps (window = TTL).
    cache::AccessTracker demand;
  };

  /// Hot half: read on every local query (one-shot notification gate).
  struct CupHot {
    /// Whether this node already notified its parent of its own interest.
    bool interest_notified = false;
  };
  /// Cold half: only demand recording and push fan-out stride it.
  struct CupCold {
    std::vector<BranchSlot> branches;  ///< Degree-bounded; linear scan.
  };
  // Layout gate (docs/scaling.md): owner tag, live flag and the one flag.
  static_assert(core::SplitNodeSlab<CupHot, CupCold>::kHotEntryBytes == 8,
                "CUP hot entry: owner, live flag, notified flag");

  /// Slab slot of `node`'s state, created (or re-initialised on a recycled
  /// slot) on first access; for a departed node, its lingering state.
  uint32_t SlotOf(NodeId node);

  /// The demand ring's saturation bar: every policy only compares the
  /// in-window count against a fixed threshold, so the ring need keep no
  /// more stamps than that threshold.
  uint32_t DemandRingThreshold() const;

  /// The (active) slot for `child` in a node's branch table, or null.
  static BranchSlot* FindBranch(std::vector<BranchSlot>& branches,
                                NodeId child);
  static const BranchSlot* FindBranch(const std::vector<BranchSlot>& branches,
                                      NodeId child);

  /// The slot for `child`, activated (fresh credit/ring) if it was not an
  /// entry yet — the flat equivalent of `branches[child]`.
  BranchSlot& ActivateBranch(std::vector<BranchSlot>& branches, NodeId child);

  /// Demand events within the last TTL window for `child`, saturating at
  /// the policy's decision bar (exact for every decision).
  uint32_t BranchDemandCount(std::vector<BranchSlot>& branches, NodeId child);

  /// Applies the configured policy; for kInvestmentReturn a positive
  /// decision spends one credit.
  bool DecidePush(std::vector<BranchSlot>& branches, NodeId child);

  /// Sends `node`'s kInterestRegister to its current parent.
  void SendRegister(NodeId node);

  TreeProtocolBase* host_;
  CupOptions options_;
  core::SplitNodeSlab<CupHot, CupCold> states_;
  /// Reused by Reregister and RearmNotifications.
  std::vector<NodeId> scratch_;
};

/// Controlled Update Propagation (Roussopoulos & Baker, USENIX 2003),
/// re-implemented as the paper's comparison baseline on top of
/// CupInterest.
///
/// This faithfully reproduces CUP's two weaknesses that DUP removes
/// (paper Section II-B):
///  * every intermediate node on the way to an interested node receives the
///    update even if it does not need it, and
///  * the demand signal is query traffic — a node that was served by the
///    previous push generates no traffic, so the next push skips it ("if
///    intermediate nodes decide to stop forwarding the index, N6 is cut off
///    from the update information"), re-exposing it to PCX-style misses
///    roughly every other update cycle. This is what bounds CUP's cost
///    saving near 50%.
class CupProtocol : public TreeProtocolBase {
 public:
  CupProtocol(net::OverlayNetwork* network, topo::IndexSearchTree* tree,
              const ProtocolOptions& options,
              const CupOptions& cup_options = CupOptions());

  std::string_view name() const override { return "cup"; }

  const CupOptions& cup_options() const { return interest_.options(); }

  void OnRootPublish(IndexVersion version, sim::SimTime expiry) override;

  void OnSplitJoined(NodeId node, NodeId parent, NodeId child) override;
  void OnNodeRemoved(NodeId node, NodeId former_parent,
                     const std::vector<NodeId>& former_children,
                     bool was_root, NodeId new_root) override;

  /// Soft-state repair (fairness counterpart to DUP's): see
  /// CupInterest::Reregister.
  void OnSoftStateRefresh() override;

  /// Test accessor: would `node` forward the next update to `child`?
  bool WouldPushTo(NodeId node, NodeId child) {
    return interest_.WouldPushTo(node, child);
  }

  const CupInterest& interest() const { return interest_; }

 protected:
  void AfterQueryObserved(NodeId node) override;
  void AfterRequestObserved(NodeId at, NodeId from_child) override;
  void HandleProtocolMessage(const net::Message& message) override;

 private:
  /// Records `version` as forwarded by `at`; false when it already was (a
  /// duplicate push).
  bool MarkForwarded(NodeId at, IndexVersion version);

  CupInterest interest_;
  /// Newest version each node forwarded (the duplicate-push filter). Kept
  /// here rather than in CupInterest's hot entry, which the adaptive
  /// protocol shares but dedupes on DupHot::last_forwarded instead.
  core::NodeSlab<IndexVersion> last_forwarded_;
};

}  // namespace dupnet::proto

#endif  // DUP_PROTO_CUP_H_
