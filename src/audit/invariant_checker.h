#ifndef DUP_AUDIT_INVARIANT_CHECKER_H_
#define DUP_AUDIT_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/overlay_network.h"
#include "proto/tree_protocol_base.h"
#include "topo/tree.h"
#include "trace/jsonl_writer.h"
#include "util/status.h"

namespace dupnet::core {
class AdaptiveProtocol;
class DupProtocol;
}
namespace dupnet::proto {
class CupInterest;
}

namespace dupnet::audit {

/// One invariant violation, pinned to a (node, key) pair with the value the
/// invariant demanded and the value actually observed. `key` is the branch
/// / child the broken entry was recorded under (kInvalidNode when the
/// invariant is per-node rather than per-entry).
struct Violation {
  sim::SimTime time = 0.0;
  std::string invariant;
  NodeId node = kInvalidNode;
  NodeId key = kInvalidNode;
  std::string expected;
  std::string actual;

  /// Human-readable one-liner (test failure messages).
  std::string ToString() const;
  /// Compact one-line JSON object (the "#audit" trace diagnostic).
  std::string ToJson() const;
};

/// Checkpointed global-state auditor for the propagation protocols: walks
/// every node's protocol and cache state and asserts the paper's structural
/// invariants. Purely observational — it reads through const accessors
/// only, never creates protocol state, draws zero RNG samples and sends no
/// messages, so an attached checker cannot perturb a run's RunMetrics.
///
/// Two invariant tiers:
///
/// *Stable* invariants hold after every completed simulation event, because
/// the protocols maintain them synchronously (churn handlers run in the
/// same event as the topology mutation):
///  - no protocol state for departed nodes;
///  - DUP arity: |S_list| <= direct children + 1 (paper Section III-B);
///  - DUP branch keys are kSelfBranch or current children of the node —
///    the invariant that pins the split-race orphan bug;
///  - DUP self entries name the node itself;
///  - with DupOptions::max_arity on: each node's delegation plan equals
///    the deterministic cap-ary plan over its sorted subscribers — which
///    bounds its direct (non-delegated) push fan-out by the cap;
///  - cache version monotonicity, never ahead of the authority, and no
///    valid entry outliving its TTL.
///
/// *Global* invariants relate state across nodes and only settle once the
/// network is quiescent (nothing in flight, nothing awaiting ack):
///  - DUP upstream consistency both directions: every virtual-path node's
///    branch representative is recorded at its parent, and every non-self
///    entry matches the live representative of its branch (no orphans, no
///    lost interest — Section III-C's failure cases 1–5);
///  - DUP subscribers lie inside the subtree of the branch they were
///    announced over (implies substitute chains are acyclic);
///  - DUP push reachability: the non-delegated subscriber-list edges plus
///    the accepted relay duties reach every interested node from the
///    authority;
///  - with max_arity on: delegation consistency in both directions —
///    every plan entry at a delegator has the matching relay duty at its
///    delegate and every relay duty is backed by a plan entry, and each
///    delegate holds at most `cap` duties per delegator (the D³-tree
///    bound);
///  - CUP registration consistency: every node whose one-shot interest
///    notification fired has a demand-branch entry at its current parent
///    (for the adaptive protocol, only while it runs the CUP regime);
///  - adaptive handover completeness, force-checked at end of run only
///    (in-flight subscribes can legitimately cross a migration and linger
///    until the next controller tick mid-run): when the regime is not DUP,
///    every subscriber list, delegation plan and relay set is empty — the
///    DUP tree is provably torn down, no subscriber left stranded.
///
/// Mid-run global checks are additionally gated on `allow_mid_global` (the
/// driver clears it for churn/lossy runs, whose quiescent states may
/// legitimately await soft-state repair) and on no tree node being down.
/// End-of-run audits pass force_global after reconvergence.
struct InvariantCheckerOptions {
  /// Permit global checks at mid-run quiescence (set by the driver for
  /// lossless churn-free runs, where quiescence implies convergence).
  bool allow_mid_global = true;
  /// Violations kept with full detail; the total count is unbounded.
  size_t max_recorded = 64;
};

class InvariantChecker {
 public:
  using Options = InvariantCheckerOptions;

  /// All pointers are borrowed and must outlive the checker. `trace` is
  /// optional: when set, every violation is streamed as a "#audit" comment
  /// line. The protocol's concrete scheme (DUP / CUP / other) is detected
  /// dynamically and selects the scheme-specific invariant set.
  InvariantChecker(const topo::IndexSearchTree* tree,
                   const net::OverlayNetwork* network,
                   const proto::TreeProtocolBase* protocol,
                   trace::JsonlTraceWriter* trace = nullptr,
                   const Options& options = Options());

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Runs one audit pass: stable invariants always, global invariants when
  /// quiescent and permitted (see class comment). Returns the number of new
  /// violations found by this pass.
  size_t CheckNow(bool force_global = false);

  /// No message scheduled for delivery and no transmission awaiting ack.
  bool quiescent() const;

  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t total_violations() const { return total_violations_; }
  uint64_t checks_run() const { return checks_run_; }
  uint64_t global_checks_run() const { return global_checks_run_; }

  /// "audit: N violations over C checks (G global); first: ..." or
  /// "audit: clean over C checks (G global)".
  std::string Summary() const;

  /// OK when clean; Internal(Summary()) otherwise.
  util::Status ToStatus() const;

 private:
  sim::SimTime Now() const;
  bool AnyTreeNodeDown() const;
  void Report(sim::SimTime time, std::string_view invariant, NodeId node,
              NodeId key, std::string expected, std::string actual);

  void CheckStable(sim::SimTime now);
  void CheckGlobal(sim::SimTime now, bool force_global);
  void CheckCaches(sim::SimTime now);
  void CheckDupStable(sim::SimTime now);
  void CheckDupArity(sim::SimTime now);
  void CheckDupGlobal(sim::SimTime now);
  void CheckDupFanOutGlobal(sim::SimTime now);
  void CheckCupStable(sim::SimTime now);
  void CheckCupGlobal(sim::SimTime now);
  void CheckAdaptiveHandover(sim::SimTime now);

  friend util::Status AuditQuiescent(const topo::IndexSearchTree& tree,
                                     const net::OverlayNetwork& network,
                                     const proto::TreeProtocolBase& protocol);

  const topo::IndexSearchTree* tree_;
  const net::OverlayNetwork* network_;
  const proto::TreeProtocolBase* protocol_;
  const core::DupProtocol* dup_;  ///< Non-null when protocol_ is DUP-based.
  /// Non-null when protocol_ is the adaptive regime controller (dup_ is
  /// then non-null too — the DUP invariant set applies verbatim).
  const core::AdaptiveProtocol* adaptive_;
  /// CUP's interest state: CupProtocol's, or the adaptive protocol's CUP
  /// regime; null for the other schemes.
  const proto::CupInterest* cup_;
  trace::JsonlTraceWriter* trace_;
  Options options_;

  /// Highest cache version seen per node id (monotonicity witness): dense,
  /// since ids are issued densely and never reused. Kept only when
  /// track_cache_versions_ is set: the one-shot AuditQuiescent runs a
  /// single pass, which the cross-pass witness can never fail.
  std::vector<IndexVersion> last_cache_version_;
  bool track_cache_versions_ = true;
  std::vector<Violation> violations_;
  uint64_t total_violations_ = 0;
  uint64_t checks_run_ = 0;
  uint64_t global_checks_run_ = 0;
};

/// One-shot audit for tests, benches and examples: requires the network to
/// be quiescent (FailedPrecondition otherwise), runs a full stable+global
/// pass and returns OK or Internal with the violation summary. The
/// successor of the old DupProtocol::ValidatePropagationState(), covering a
/// superset of its invariants for every scheme.
util::Status AuditQuiescent(const topo::IndexSearchTree& tree,
                            const net::OverlayNetwork& network,
                            const proto::TreeProtocolBase& protocol);

}  // namespace dupnet::audit

#endif  // DUP_AUDIT_INVARIANT_CHECKER_H_
