#ifndef DUP_CORE_ADAPTIVE_PROTOCOL_H_
#define DUP_CORE_ADAPTIVE_PROTOCOL_H_

#include <vector>

#include "core/dup_protocol.h"
#include "proto/adaptive_controller.h"
#include "proto/cup.h"

namespace dupnet::core {

/// Online per-key scheme migration (ROADMAP item 4): runs the key under
/// the regime a proto::AdaptiveController picks — PCX (pull only), CUP
/// (demand-driven hop-by-hop push) or DUP (subscription tree) — and
/// migrates between them live, using only the protocols' existing
/// machinery for handover:
///
///  * entering DUP: every currently interested node self-subscribes with a
///    real kSubscribe (Figure 3), paying the honest tree-construction cost;
///  * leaving DUP: every subscribed node withdraws via kUnsubscribe, and
///    the cascade tears the DUP tree down; stragglers that subscribed from
///    in-flight messages are swept at the next controller tick and decay
///    on first push contact, so no subscriber is left stranded (the
///    adaptive-handover audit invariant);
///  * entering CUP: one-shot interest notifications are re-armed so
///    interested nodes re-register, while per-branch demand windows —
///    maintained from live request traffic in every regime — are already
///    warm.
///
/// No new message classes: handover rides kInterestRegister / kSubscribe /
/// kUnsubscribe / kSubstitute, so the fault layer's at-least-once ack and
/// retry semantics carry over unchanged. The CUP regime is CupProtocol's
/// own proto::CupInterest under the default demand-window policy (push
/// down a branch iff it showed demand in the trailing TTL window).
///
/// Inherits DupProtocol (rather than composing it) so the Figure 3 state
/// machine, the arity-capped fan-out planner and the churn repairs apply
/// verbatim while in the DUP regime.
class AdaptiveProtocol : public DupProtocol {
 public:
  AdaptiveProtocol(net::OverlayNetwork* network, topo::IndexSearchTree* tree,
                   const proto::ProtocolOptions& options,
                   const DupOptions& dup_options = DupOptions(),
                   const proto::AdaptiveOptions& adaptive_options =
                       proto::AdaptiveOptions());

  std::string_view name() const override { return "adaptive"; }

  void OnRootPublish(IndexVersion version, sim::SimTime expiry) override;

  void OnSplitJoined(NodeId node, NodeId parent, NodeId child) override;
  void OnNodeRemoved(NodeId node, NodeId former_parent,
                     const std::vector<NodeId>& former_children,
                     bool was_root, NodeId new_root) override;
  void OnSoftStateRefresh() override;

  proto::AdaptiveRegime regime() const { return controller_.regime(); }
  const proto::AdaptiveController& controller() const { return controller_; }

  /// The CUP regime's interest state (demand windows are kept in every
  /// regime; notifications fire only in CUP).
  const proto::CupInterest& cup_interest() const { return cup_; }

 protected:
  void AfterQueryObserved(NodeId node) override;
  void AfterLocalQuery(NodeId node) override;
  void AfterRequestObserved(NodeId at, NodeId from_child) override;
  void HandleProtocolMessage(const net::Message& message) override;

 private:
  void HandleAdaptivePush(const net::Message& message);

  /// Regime handover (see class comment).
  void MigrateRegime(proto::AdaptiveRegime from, proto::AdaptiveRegime to);
  /// Builds the DUP tree: every interested node self-subscribes.
  void EnterDup();
  /// Tears the DUP tree down via unsubscribes; also the straggler sweep
  /// run at every non-DUP controller tick.
  void SweepDupSubscriptions();

  proto::AdaptiveController controller_;
  proto::CupInterest cup_;
  /// Reused by the migration sweeps (sorted node collections).
  std::vector<NodeId> sweep_scratch_;
};

}  // namespace dupnet::core

#endif  // DUP_CORE_ADAPTIVE_PROTOCOL_H_
