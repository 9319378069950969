#ifndef DUP_TESTS_TEST_UTIL_H_
#define DUP_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "audit/invariant_checker.h"
#include "metrics/recorder.h"
#include "net/overlay_network.h"
#include "proto/tree_protocol_base.h"
#include "sim/engine.h"
#include "topo/tree.h"
#include "util/check.h"
#include "util/rng.h"

namespace dupnet::testing {

/// Test-side sim::EventTarget that hands every event it receives to
/// `on_event(code, arg)`, so a test can script what an event does (record
/// the clock, schedule more events) inline.
class ScriptedTarget : public sim::EventTarget {
 public:
  explicit ScriptedTarget(std::function<void(uint32_t, uint64_t)> on_event)
      : on_event_(std::move(on_event)) {}
  void OnSimEvent(uint32_t code, uint64_t arg) override {
    on_event_(code, arg);
  }

 private:
  std::function<void(uint32_t, uint64_t)> on_event_;
};

/// Builds the index search tree of the paper's Figures 1 and 2:
///
///   N1 - N2 - N3 - N4
///               \- N5 - N6 - N7
///                          \- N8
///
/// N1 (id 1) is the authority. Node ids equal the paper's subscripts.
inline topo::IndexSearchTree MakePaperTree() {
  topo::IndexSearchTree tree(/*root=*/1);
  DUP_CHECK_OK(tree.AttachLeaf(1, 2));
  DUP_CHECK_OK(tree.AttachLeaf(2, 3));
  DUP_CHECK_OK(tree.AttachLeaf(3, 4));
  DUP_CHECK_OK(tree.AttachLeaf(3, 5));
  DUP_CHECK_OK(tree.AttachLeaf(5, 6));
  DUP_CHECK_OK(tree.AttachLeaf(6, 7));
  DUP_CHECK_OK(tree.AttachLeaf(6, 8));
  return tree;
}

/// Owns the simulation plumbing a protocol under test needs. The protocol
/// is created by the test (PCX/CUP/DUP) against `tree` and `network` and
/// registered with `Attach`.
class ProtocolHarness {
 public:
  explicit ProtocolHarness(topo::IndexSearchTree tree, uint64_t seed = 7)
      : tree_(std::move(tree)),
        rng_(seed),
        network_(&engine_, &rng_, &recorder_, /*mean_hop_latency=*/0.1) {}

  /// Routes delivered messages into `protocol`.
  void Attach(proto::TreeProtocolBase* protocol) {
    protocol_ = protocol;
    network_.set_sink(protocol);
  }

  /// Runs the event loop dry (the network becomes quiescent).
  void Drain() { engine_.Run(); }

  /// Runs the full invariant audit at quiescence (docs/invariants.md):
  /// stable plus global checks for the attached protocol. Requires a prior
  /// Drain(); returns FailedPrecondition while traffic is still in flight.
  util::Status Audit() const {
    return audit::AuditQuiescent(tree_, network_, *protocol_);
  }

  /// Issues `count` queries at `node`, draining after each.
  void QueryAt(NodeId node, int count = 1) {
    for (int i = 0; i < count; ++i) {
      protocol_->OnLocalQuery(node);
      Drain();
    }
  }

  /// Publishes a version at the authority with a full TTL and drains.
  void Publish(IndexVersion version, sim::SimTime ttl = 3600.0) {
    protocol_->OnRootPublish(version, engine_.Now() + ttl);
    Drain();
  }

  /// Advances simulated time by `delta`, running whatever falls due.
  void AdvanceTime(sim::SimTime delta) {
    engine_.RunUntil(engine_.Now() + delta);
  }

  sim::Engine& engine() { return engine_; }
  topo::IndexSearchTree& tree() { return tree_; }
  net::OverlayNetwork& network() { return network_; }
  metrics::Recorder& recorder() { return recorder_; }
  util::Rng& rng() { return rng_; }

 private:
  topo::IndexSearchTree tree_;
  util::Rng rng_;
  sim::Engine engine_;
  metrics::Recorder recorder_;
  net::OverlayNetwork network_;
  proto::TreeProtocolBase* protocol_ = nullptr;
};

}  // namespace dupnet::testing

#endif  // DUP_TESTS_TEST_UTIL_H_
