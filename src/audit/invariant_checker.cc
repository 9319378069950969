#include "audit/invariant_checker.h"

#include <algorithm>
#include <deque>
#include <unordered_set>
#include <utility>

#include "core/adaptive_protocol.h"
#include "core/dup_protocol.h"
#include "proto/cup.h"
#include "util/check.h"
#include "util/json.h"
#include "util/str.h"

namespace dupnet::audit {

namespace {

std::string NodeName(NodeId node) {
  if (node == kInvalidNode) return "<none>";
  if (node == core::kSelfBranch) return "<self>";
  return util::StrFormat("%u", node);
}

const proto::CupInterest* CupInterestOf(
    const proto::TreeProtocolBase* protocol) {
  if (const auto* adaptive =
          dynamic_cast<const core::AdaptiveProtocol*>(protocol)) {
    return &adaptive->cup_interest();
  }
  if (const auto* cup = dynamic_cast<const proto::CupProtocol*>(protocol)) {
    return &cup->interest();
  }
  return nullptr;
}

}  // namespace

std::string Violation::ToString() const {
  return util::StrFormat(
      "[t=%.3f] %s at node %s key %s: expected %s, actual %s",
      time, invariant.c_str(), NodeName(node).c_str(), NodeName(key).c_str(),
      expected.c_str(), actual.c_str());
}

std::string Violation::ToJson() const {
  util::JsonValue json = util::JsonValue::MakeObject();
  json.Set("t", time);
  json.Set("invariant", invariant);
  json.Set("node", static_cast<uint64_t>(node));
  json.Set("key", static_cast<uint64_t>(key));
  json.Set("expected", expected);
  json.Set("actual", actual);
  return json.Dump();
}

InvariantChecker::InvariantChecker(const topo::IndexSearchTree* tree,
                                   const net::OverlayNetwork* network,
                                   const proto::TreeProtocolBase* protocol,
                                   trace::JsonlTraceWriter* trace,
                                   const Options& options)
    : tree_(tree),
      network_(network),
      protocol_(protocol),
      dup_(dynamic_cast<const core::DupProtocol*>(protocol)),
      adaptive_(dynamic_cast<const core::AdaptiveProtocol*>(protocol)),
      cup_(CupInterestOf(protocol)),
      trace_(trace),
      options_(options) {
  DUP_CHECK(tree != nullptr);
  DUP_CHECK(network != nullptr);
  DUP_CHECK(protocol != nullptr);
}

sim::SimTime InvariantChecker::Now() const {
  return network_->engine()->Now();
}

bool InvariantChecker::quiescent() const {
  return network_->in_flight_count() == 0 && network_->pending_acks() == 0;
}

bool InvariantChecker::AnyTreeNodeDown() const {
  for (NodeId node : tree_->NodesPreOrder()) {
    if (network_->IsDown(node)) return true;
  }
  return false;
}

void InvariantChecker::Report(sim::SimTime time, std::string_view invariant,
                              NodeId node, NodeId key, std::string expected,
                              std::string actual) {
  ++total_violations_;
  Violation violation;
  violation.time = time;
  violation.invariant = std::string(invariant);
  violation.node = node;
  violation.key = key;
  violation.expected = std::move(expected);
  violation.actual = std::move(actual);
  if (trace_ != nullptr) trace_->WriteCommentLine("audit", violation.ToJson());
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(std::move(violation));
  }
}

size_t InvariantChecker::CheckNow(bool force_global) {
  const uint64_t before = total_violations_;
  const sim::SimTime now = Now();
  ++checks_run_;
  CheckStable(now);
  // Global invariants only settle once the network is quiescent, and a
  // down-but-undetected node silently drops messages, leaving state that
  // cannot converge until failure detection fires — skip until then.
  if (quiescent() && (force_global || options_.allow_mid_global) &&
      !AnyTreeNodeDown()) {
    ++global_checks_run_;
    CheckGlobal(now, force_global);
  }
  return static_cast<size_t>(total_violations_ - before);
}

void InvariantChecker::CheckStable(sim::SimTime now) {
  CheckCaches(now);
  if (dup_ != nullptr) {
    CheckDupStable(now);
    CheckDupArity(now);
  }
  if (cup_ != nullptr) CheckCupStable(now);
}

void InvariantChecker::CheckGlobal(sim::SimTime now, bool force_global) {
  if (dup_ != nullptr) {
    CheckDupGlobal(now);
    CheckDupFanOutGlobal(now);
  }
  // The adaptive protocol keeps its registrations only while in CUP.
  if (cup_ != nullptr && (adaptive_ == nullptr ||
                          adaptive_->regime() == proto::AdaptiveRegime::kCup)) {
    CheckCupGlobal(now);
  }
  // Only at the end-of-run forced pass: mid-run, in-flight subscribes can
  // legitimately cross a migration and linger until the next controller
  // tick sweeps them.
  if (adaptive_ != nullptr && force_global) CheckAdaptiveHandover(now);
}

// ---------------------------------------------------------------------------
// Shared (all schemes): per-node cache discipline.
// ---------------------------------------------------------------------------

void InvariantChecker::CheckCaches(sim::SimTime now) {
  const IndexVersion latest = protocol_->latest_version();
  const double ttl = protocol_->options().ttl;
  protocol_->VisitCaches([&](NodeId node, const cache::IndexCache& cache) {
    const IndexVersion stored = cache.stored_version();
    auto [it, inserted] = last_cache_version_.try_emplace(node, stored);
    if (!inserted) {
      if (stored < it->second) {
        Report(now, "cache-monotonic", node, kInvalidNode,
               util::StrFormat("version >= %llu",
                               static_cast<unsigned long long>(it->second)),
               util::StrFormat("%llu",
                               static_cast<unsigned long long>(stored)));
      }
      it->second = std::max(it->second, stored);
    }
    if (stored > latest) {
      Report(now, "cache-from-future", node, kInvalidNode,
             util::StrFormat("version <= authority's %llu",
                             static_cast<unsigned long long>(latest)),
             util::StrFormat("%llu", static_cast<unsigned long long>(stored)));
    }
    if (const auto entry = cache.Peek(now)) {
      // The authority stamps expiry = issue_time + TTL and copies inherit
      // it unextended, so no valid entry may reach past now + TTL.
      if (entry->expiry > now + ttl) {
        Report(now, "cache-ttl-bound", node, kInvalidNode,
               util::StrFormat("expiry <= %.6f", now + ttl),
               util::StrFormat("%.6f", entry->expiry));
      }
    }
  });
}

// ---------------------------------------------------------------------------
// DUP (paper Section III).
// ---------------------------------------------------------------------------

void InvariantChecker::CheckDupStable(sim::SimTime now) {
  dup_->VisitSubscriberStates([&](NodeId node,
                                  const core::SubscriberList& slist) {
    if (!tree_->Contains(node)) {
      if (!slist.empty()) {
        Report(now, "dup-departed-state", node, kInvalidNode,
               "no S_list for a departed node",
               util::StrFormat("%zu entries", slist.size()));
      }
      return;
    }
    const size_t arity_bound = tree_->Children(node).size() + 1;
    if (slist.size() > arity_bound) {
      Report(now, "dup-arity", node, kInvalidNode,
             util::StrFormat("|S_list| <= children + 1 = %zu", arity_bound),
             util::StrFormat("%zu", slist.size()));
    }
    for (const auto& [branch, subscriber] : slist.entries()) {
      if (branch == core::kSelfBranch) {
        if (subscriber != node) {
          Report(now, "dup-self-entry", node, branch,
                 util::StrFormat("self entry names the node (%u)", node),
                 NodeName(subscriber));
        }
        continue;
      }
      // Branch keys are maintained synchronously across every topology
      // change (split handover, removal cleanup, in-flight re-routing), so
      // a key that is not a current child is an orphan no unsubscribe can
      // ever reach — the split-race signature.
      if (!tree_->Contains(branch) || tree_->Parent(branch) != node) {
        Report(now, "dup-branch-key", node, branch,
               "branch key is a current child",
               tree_->Contains(branch)
                   ? util::StrFormat("child of %u", tree_->Parent(branch))
                   : "departed node");
      }
    }
  });
}

void InvariantChecker::CheckDupGlobal(sim::SimTime now) {
  // Snapshot every node's list; the pointers stay valid for this pass
  // (auditing never mutates protocol state).
  std::unordered_map<NodeId, const core::SubscriberList*> lists;
  dup_->VisitSubscriberStates(
      [&](NodeId node, const core::SubscriberList& slist) {
        lists.emplace(node, &slist);
      });
  const NodeId root = tree_->root();

  // Upstream direction: every node representing interest for its branch is
  // recorded — with the right representative — at its parent. A mismatch
  // is lost interest (cases 1-5 of Section III-C gone wrong).
  for (NodeId node : tree_->NodesPreOrder()) {
    if (node == root) continue;
    const NodeId rep = dup_->RepresentativeOf(node);
    if (rep == kInvalidNode) continue;
    const NodeId parent = tree_->Parent(node);
    const auto it = lists.find(parent);
    const std::optional<NodeId> recorded =
        it == lists.end() ? std::nullopt : it->second->Get(node);
    if (!recorded.has_value() || *recorded != rep) {
      Report(now, "dup-upstream-entry", parent, node,
             util::StrFormat("entry for branch %u -> representative %u", node,
                             rep),
             recorded.has_value() ? NodeName(*recorded) : "absent");
    }
  }

  for (const auto& [node, slist] : lists) {
    if (!tree_->Contains(node)) continue;
    for (const auto& [branch, subscriber] : slist->entries()) {
      if (branch == core::kSelfBranch) continue;
      if (!tree_->Contains(branch) || tree_->Parent(branch) != node) {
        continue;  // Already reported by the stable branch-key check.
      }
      // Downstream direction: the recorded subscriber must be the branch's
      // live representative; anything else is an orphan entry (e.g. a lost
      // unsubscribe that exhausted its retries).
      const NodeId rep = dup_->RepresentativeOf(branch);
      if (rep != subscriber) {
        Report(now, "dup-orphan-entry", node, branch,
               rep == kInvalidNode ? "no entry (branch has no interest)"
                                   : util::StrFormat("representative %u", rep),
               NodeName(subscriber));
      }
      // Substitute chains must stay inside the branch they were announced
      // over (acyclicity): the subscriber lies in branch's subtree.
      if (tree_->Contains(subscriber)) {
        const std::vector<NodeId> path = tree_->PathToRoot(subscriber);
        if (std::find(path.begin(), path.end(), branch) == path.end()) {
          Report(now, "dup-subscriber-subtree", node, branch,
                 util::StrFormat("subscriber inside subtree of %u", branch),
                 util::StrFormat("%u (outside)", subscriber));
        }
      }
    }
  }

  // Push reachability: one update from the authority must reach every
  // interested node. Follow exactly the edges PushToSubscribers uses — the
  // non-delegated subscriber entries plus the accepted relay duties (with
  // the arity cap off, that is every subscriber entry).
  std::unordered_map<NodeId, core::DupProtocol::FanOutState> fan_out;
  dup_->VisitFanOutStates(
      [&](NodeId node, const core::DupProtocol::FanOutState& state) {
        fan_out.emplace(node, state);
      });
  std::unordered_set<NodeId> reached;
  std::deque<NodeId> frontier;
  reached.insert(root);
  frontier.push_back(root);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    const auto it = fan_out.find(node);
    if (it == fan_out.end()) continue;
    const auto& dels = *it->second.delegations;
    for (const auto& [branch, subscriber] : it->second.slist->entries()) {
      if (subscriber == node) continue;  // Self entry: no outgoing push.
      const auto del = std::lower_bound(
          dels.begin(), dels.end(), subscriber,
          [](const auto& d, NodeId t) { return d.first < t; });
      if (del != dels.end() && del->first == subscriber) {
        continue;  // Delegated: served by the delegate's relay duty.
      }
      if (reached.insert(subscriber).second) frontier.push_back(subscriber);
    }
    for (const auto& [delegator, target] : *it->second.relays) {
      if (target == node) continue;
      if (reached.insert(target).second) frontier.push_back(target);
    }
  }
  for (const auto& [node, slist] : lists) {
    if (!tree_->Contains(node) || !slist->HasSelf()) continue;
    if (reached.count(node) == 0) {
      Report(now, "dup-push-reachability", node, kInvalidNode,
             "interested node reachable from the authority", "unreachable");
    }
  }
}

void InvariantChecker::CheckDupArity(sim::SimTime now) {
  const uint32_t cap = dup_->dup_options().max_arity;
  if (cap == 0) return;
  dup_->VisitFanOutStates([&](NodeId node,
                              const core::DupProtocol::FanOutState& state) {
    if (!tree_->Contains(node)) return;
    // The plan is a pure function of the sorted subscriber set, recomputed
    // synchronously at every S_list mutation, so it must match exactly
    // after every completed event — which bounds the node's direct
    // (non-delegated) push fan-out by the cap.
    const std::vector<NodeId> targets = state.slist->SubscribersSorted(node);
    std::vector<std::pair<NodeId, NodeId>> expected;
    for (size_t i = cap; i < targets.size(); ++i) {
      expected.emplace_back(targets[i], targets[i / cap - 1]);
    }
    if (*state.delegations != expected) {
      Report(now, "dup-arity-plan", node, kInvalidNode,
             util::StrFormat("the cap-%u plan over %zu subscribers "
                             "(%zu delegations)",
                             cap, targets.size(), expected.size()),
             util::StrFormat("%zu delegations",
                             state.delegations->size()));
      return;
    }
    const size_t direct = targets.size() - expected.size();
    if (direct > cap) {
      Report(now, "dup-arity-bound", node, kInvalidNode,
             util::StrFormat("direct fan-out <= %u", cap),
             util::StrFormat("%zu", direct));
    }
  });
}

void InvariantChecker::CheckDupFanOutGlobal(sim::SimTime now) {
  const uint32_t cap = dup_->dup_options().max_arity;
  if (cap == 0) return;
  std::unordered_map<NodeId, core::DupProtocol::FanOutState> fan_out;
  dup_->VisitFanOutStates(
      [&](NodeId node, const core::DupProtocol::FanOutState& state) {
        fan_out.emplace(node, state);
      });

  // Delegator -> delegate: every plan entry has the matching relay duty
  // installed (a missing one would leave its target without pushes).
  // Entries naming departed nodes are churn transients the removal sweep
  // re-plans; skip them.
  for (const auto& [node, state] : fan_out) {
    if (!tree_->Contains(node)) continue;
    for (const auto& [target, delegate] : *state.delegations) {
      if (!tree_->Contains(delegate) || !tree_->Contains(target)) continue;
      const auto it = fan_out.find(delegate);
      const bool held =
          it != fan_out.end() &&
          std::binary_search(it->second.relays->begin(),
                             it->second.relays->end(),
                             std::make_pair(node, target));
      if (!held) {
        Report(now, "dup-delegation-consistency", node, target,
               util::StrFormat("relay duty held at delegate %u", delegate),
               "absent");
      }
    }
  }

  // Delegate -> delegator: every relay duty is backed by a live plan entry
  // (anything else is a stale duty that would duplicate pushes), and each
  // delegate holds at most `cap` duties per delegator — the D³-tree load
  // bound the plan construction promises.
  for (const auto& [node, state] : fan_out) {
    if (!tree_->Contains(node)) continue;
    NodeId run_delegator = kInvalidNode;
    size_t run_length = 0;
    for (const auto& [delegator, target] : *state.relays) {
      if (delegator == run_delegator) {
        ++run_length;
      } else {
        run_delegator = delegator;
        run_length = 1;
      }
      if (run_length == static_cast<size_t>(cap) + 1) {
        Report(now, "dup-relay-load", node, delegator,
               util::StrFormat("<= %u relay duties per delegator", cap),
               util::StrFormat("at least %zu", run_length));
      }
      if (!tree_->Contains(delegator) || !tree_->Contains(target)) continue;
      const auto it = fan_out.find(delegator);
      const bool planned =
          it != fan_out.end() &&
          std::binary_search(it->second.delegations->begin(),
                             it->second.delegations->end(),
                             std::make_pair(target, node));
      if (!planned) {
        Report(now, "dup-stale-relay", node, target,
               util::StrFormat("plan entry at delegator %u", delegator),
               "absent");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CUP (comparison baseline, and the adaptive protocol's CUP regime).
// ---------------------------------------------------------------------------

void InvariantChecker::CheckCupStable(sim::SimTime now) {
  for (NodeId node : cup_->NotifiedNodes()) {
    if (!tree_->Contains(node)) {
      Report(now, "cup-departed-state", node, kInvalidNode,
             "no interest state for a departed node", "notified");
    }
  }
}

void InvariantChecker::CheckCupGlobal(sim::SimTime now) {
  // Registration consistency along the index search tree: a node whose
  // one-shot interest notification fired must be represented by a
  // demand-branch entry at its *current* parent, across any number of
  // re-parentings (split handover, parent failure re-registration).
  for (NodeId node : cup_->NotifiedNodes()) {
    if (!tree_->Contains(node) || node == tree_->root()) continue;
    const NodeId parent = tree_->Parent(node);
    if (!cup_->HasBranchEntry(parent, node)) {
      Report(now, "cup-registration", parent, node,
             "demand-branch entry for notified child", "absent");
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive regime controller (core::AdaptiveProtocol).
// ---------------------------------------------------------------------------

void InvariantChecker::CheckAdaptiveHandover(sim::SimTime now) {
  // Outside the DUP regime the DUP tree must be provably gone — every
  // subscriber list, delegation plan and relay set empty, no subscriber
  // left stranded.
  if (adaptive_->regime() == proto::AdaptiveRegime::kDup) return;
  adaptive_->VisitFanOutStates(
      [&](NodeId node, const core::DupProtocol::FanOutState& state) {
        if (!tree_->Contains(node)) return;
        if (!state.slist->empty()) {
          Report(now, "adaptive-handover", node, kInvalidNode,
                 "empty S_list outside the DUP regime",
                 util::StrFormat("%zu entries", state.slist->size()));
        }
        if (!state.delegations->empty() || !state.relays->empty()) {
          Report(now, "adaptive-handover-fanout", node, kInvalidNode,
                 "no delegation state outside the DUP regime",
                 util::StrFormat("%zu delegations, %zu relays",
                                 state.delegations->size(),
                                 state.relays->size()));
        }
      });
}

std::string InvariantChecker::Summary() const {
  if (total_violations_ == 0) {
    return util::StrFormat(
        "audit: clean over %llu checks (%llu global)",
        static_cast<unsigned long long>(checks_run_),
        static_cast<unsigned long long>(global_checks_run_));
  }
  std::string summary = util::StrFormat(
      "audit: %llu violations over %llu checks (%llu global); first: %s",
      static_cast<unsigned long long>(total_violations_),
      static_cast<unsigned long long>(checks_run_),
      static_cast<unsigned long long>(global_checks_run_),
      violations_.empty() ? "<not recorded>"
                          : violations_.front().ToString().c_str());
  return summary;
}

util::Status InvariantChecker::ToStatus() const {
  if (total_violations_ == 0) return util::Status::OK();
  return util::Status::Internal(Summary());
}

util::Status AuditQuiescent(const topo::IndexSearchTree& tree,
                            const net::OverlayNetwork& network,
                            const proto::TreeProtocolBase& protocol) {
  InvariantChecker checker(&tree, &network, &protocol);
  if (!checker.quiescent()) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "network not quiescent: %zu in flight, %zu awaiting ack",
        network.in_flight_count(), network.pending_acks()));
  }
  checker.CheckNow(/*force_global=*/true);
  return checker.ToStatus();
}

}  // namespace dupnet::audit
