#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/dup_protocol.h"
#include "test_util.h"
#include "topo/tree_generator.h"

namespace dupnet::core {
namespace {

using ::dupnet::testing::MakePaperTree;
using ::dupnet::testing::ProtocolHarness;
using proto::ProtocolOptions;

/// Reproduces the driver's removal sequence against a standalone protocol:
/// mark the node down, repair the tree, notify the protocol.
void RemoveNodeLikeDriver(ProtocolHarness* harness, DupProtocol* protocol,
                          NodeId node, bool graceful) {
  if (graceful) {
    protocol->OnGracefulLeave(node);
    harness->Drain();
  }
  const bool was_root = node == harness->tree().root();
  const NodeId former_parent =
      was_root ? kInvalidNode : harness->tree().Parent(node);
  const std::vector<NodeId> former_children = harness->tree().Children(node);
  ASSERT_TRUE(harness->tree().RemoveNode(node).ok());
  harness->network().SetNodeDown(node, true);
  protocol->OnNodeRemoved(node, former_parent, former_children, was_root,
                          harness->tree().root());
  harness->Drain();
  if (was_root) {
    // Driver semantics: the promoted authority refreshes the index and
    // restarts propagation (paper failure case 5).
    protocol->OnRootPublish(protocol->latest_version(),
                            protocol->latest_expiry());
    harness->Drain();
  }
}

class DupChurnTest : public ::testing::Test {
 protected:
  DupChurnTest() : harness_(MakePaperTree()) {
    protocol_ = std::make_unique<DupProtocol>(
        &harness_.network(), &harness_.tree(), ProtocolOptions());
    harness_.Attach(protocol_.get());
    protocol_->OnRootPublish(1, harness_.engine().Now() + 3600.0);
    harness_.Drain();
  }

  void Subscribe(NodeId node) {
    protocol_->ForceSubscribe(node);
    harness_.Drain();
  }

  void ExpectPushReaches(IndexVersion version,
                         const std::set<NodeId>& nodes) {
    protocol_->OnRootPublish(version,
                             harness_.engine().Now() + 3600.0);
    harness_.Drain();
    for (NodeId node : nodes) {
      EXPECT_EQ(protocol_->CacheOf(node).stored_version(), version)
          << "node " << node << " missed version " << version;
    }
  }

  ProtocolHarness harness_;
  std::unique_ptr<DupProtocol> protocol_;
};

// Paper failure case 1: the failed node is on no virtual path.
TEST_F(DupChurnTest, FailureOutsideVirtualPath) {
  Subscribe(6);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 4, /*graceful=*/false);
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {6});
}

// Paper failure case 2: the failed node is the last node of a virtual path.
TEST_F(DupChurnTest, FailureOfEndNodeClearsPath) {
  Subscribe(6);
  Subscribe(4);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 6, /*graceful=*/false);
  EXPECT_TRUE(harness_.Audit().ok());
  // Figure 2 (c): the root now pushes directly to N4.
  EXPECT_EQ(protocol_->SubscriberListOf(1).Get(2), std::optional<NodeId>(4));
  EXPECT_FALSE(protocol_->OnVirtualPath(5));
  ExpectPushReaches(2, {4});
}

// Paper failure case 3: the failed node is inside a virtual path.
TEST_F(DupChurnTest, FailureInsideVirtualPathReconnectsDownstream) {
  Subscribe(6);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 5, /*graceful=*/false);
  // N6 reparented under N3 and re-announced itself.
  EXPECT_EQ(harness_.tree().Parent(6), 3u);
  EXPECT_TRUE(harness_.Audit().ok());
  EXPECT_EQ(protocol_->SubscriberListOf(1).Get(2), std::optional<NodeId>(6));
  ExpectPushReaches(2, {6});
}

// Paper failure case 4: the failed node is a DUP-tree branch point.
TEST_F(DupChurnTest, FailureOfBranchPoint) {
  Subscribe(6);
  Subscribe(4);
  ASSERT_TRUE(protocol_->InDupTree(3));
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 3, /*graceful=*/false);
  // N4 and N5's subtree reparent under N2; both branches re-announce and
  // N2 becomes the new branch point.
  EXPECT_TRUE(harness_.Audit().ok());
  EXPECT_TRUE(protocol_->InDupTree(2));
  ExpectPushReaches(2, {4, 6});
}

// Paper failure case 5: the root itself fails.
TEST_F(DupChurnTest, FailureOfRoot) {
  // Give the root a second branch with its own subscriber.
  ASSERT_TRUE(harness_.tree().AttachLeaf(1, 9).ok());
  Subscribe(6);
  Subscribe(9);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 1, /*graceful=*/false);
  EXPECT_EQ(harness_.tree().root(), 2u);
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {6, 9});
}

TEST_F(DupChurnTest, GracefulLeaveOfEndNodeSendsUnsubscribe) {
  Subscribe(6);
  const uint64_t control = harness_.recorder().hops().control();
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 6, /*graceful=*/true);
  // The courtesy unsubscribe traveled before departure.
  EXPECT_GT(harness_.recorder().hops().control(), control);
  EXPECT_TRUE(harness_.Audit().ok());
  for (NodeId n : {1u, 2u, 3u, 5u}) {
    EXPECT_FALSE(protocol_->OnVirtualPath(n)) << "node " << n;
  }
}

TEST_F(DupChurnTest, GracefulLeaveOfVirtualPathMiddle) {
  Subscribe(6);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 5, /*graceful=*/true);
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {6});
}

TEST_F(DupChurnTest, SplitJoinInheritsSubscriberEntry) {
  Subscribe(6);
  // Paper Section III-C: N3' inserted between N3 and N5 inherits N3's
  // entry and becomes an intermediate virtual-path node.
  ASSERT_TRUE(harness_.tree().SplitEdge(3, 5, 35).ok());
  protocol_->OnSplitJoined(35, 3, 5);
  harness_.Drain();
  EXPECT_TRUE(protocol_->OnVirtualPath(35));
  EXPECT_EQ(protocol_->SubscriberListOf(35).Get(5), std::optional<NodeId>(6));
  EXPECT_EQ(protocol_->SubscriberListOf(3).Get(35), std::optional<NodeId>(6));
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {6});
}

TEST_F(DupChurnTest, SplitJoinOutsideVirtualPathIsInert) {
  Subscribe(6);
  ASSERT_TRUE(harness_.tree().SplitEdge(6, 8, 68).ok());
  protocol_->OnSplitJoined(68, 6, 8);
  harness_.Drain();
  EXPECT_FALSE(protocol_->OnVirtualPath(68));
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(DupChurnTest, LeafJoinThenSubscribe) {
  ASSERT_TRUE(harness_.tree().AttachLeaf(7, 70).ok());
  protocol_->OnLeafJoined(70, 7);
  Subscribe(70);
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {70});
}

TEST_F(DupChurnTest, SequentialFailuresStayConsistent) {
  Subscribe(6);
  Subscribe(4);
  Subscribe(8);
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 5, false);
  EXPECT_TRUE(harness_.Audit().ok());
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 6, false);
  EXPECT_TRUE(harness_.Audit().ok());
  RemoveNodeLikeDriver(&harness_, protocol_.get(), 3, false);
  EXPECT_TRUE(harness_.Audit().ok());
  // N8 was reparented twice; N4 once. Both still receive updates.
  ExpectPushReaches(2, {4, 8});
}

// Regression: a subscribe in flight across an edge split. N6 subscribes;
// after the announcement has been relayed by N5 but before it reaches N3,
// N3' (35) splits the 3-5 edge. The stale message arrives at N3 from a
// node that is no longer its child; N3 must re-route it to N5's new parent
// instead of recording a subscriber entry under the bogus branch key 5.
TEST_F(DupChurnTest, SubscribeInFlightAcrossEdgeSplitIsRerouted) {
  protocol_->ForceSubscribe(6);
  // One step delivers 6's announcement at N5, which relays it toward N3.
  harness_.engine().Step();
  ASSERT_EQ(protocol_->SubscriberListOf(5).Get(6), std::optional<NodeId>(6));
  ASSERT_GT(harness_.network().in_flight_count(), 0u);

  ASSERT_TRUE(harness_.tree().SplitEdge(3, 5, 35).ok());
  protocol_->OnSplitJoined(35, 3, 5);
  harness_.Drain();

  // The re-routed announcement built the virtual path through N3', and no
  // node holds an entry keyed by a non-child (the pre-fix corruption).
  EXPECT_EQ(protocol_->SubscriberListOf(35).Get(5), std::optional<NodeId>(6));
  EXPECT_EQ(protocol_->SubscriberListOf(3).Get(35), std::optional<NodeId>(6));
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {6});
}

// Regression: an in-flight substitute racing the unsubscribe that collapses
// its branch point. Subscribing N7 and N8 makes N6 a branch point, which
// announces substitute(rep -> 6) upstream; unsubscribing both without
// draining lets that substitute interleave with the unsubscribes that drop
// N6 back below branch-point arity. After quiescence no stale upstream
// entry may survive (the ISSUE's prime suspect).
TEST_F(DupChurnTest, SubstituteRacingUnsubscribeAtCollapsingBranchPoint) {
  Subscribe(7);
  Subscribe(8);
  ASSERT_TRUE(protocol_->InDupTree(6));  // Branch point for {7, 8}.
  protocol_->ForceUnsubscribe(7);
  protocol_->ForceUnsubscribe(8);  // No drain: control traffic interleaves.
  harness_.Drain();
  const auto audit = harness_.Audit();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  for (NodeId n : {1u, 2u, 3u, 5u, 6u}) {
    EXPECT_FALSE(protocol_->OnVirtualPath(n)) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// Message loss and repair (docs/fault-injection.md).
// ---------------------------------------------------------------------------

// A lost substitute leaves the upstream pusher pointing at the old
// representative; the soft-state refresh re-announces representatives and
// reconverges the DUP tree.
TEST_F(DupChurnTest, DroppedSubstituteRepairedBySoftStateRefresh) {
  Subscribe(6);
  // Subscribing N4 turns N3 into a branch point, which announces
  // substitute(6 -> 3) to N2. Drop exactly that message.
  bool dropped = false;
  harness_.network().set_loss_filter([&dropped](const net::Message& m) {
    if (m.type != net::MessageType::kSubstitute || dropped) return false;
    dropped = true;
    return true;
  });
  Subscribe(4);
  ASSERT_TRUE(dropped);
  // Upstream still routes the branch through the stale representative N6.
  EXPECT_FALSE(harness_.Audit().ok());

  harness_.network().set_loss_filter(nullptr);
  protocol_->OnSoftStateRefresh();
  harness_.Drain();
  EXPECT_TRUE(harness_.Audit().ok());
  ExpectPushReaches(2, {4, 6});
}

// With the ack/retry machinery armed the same loss heals by itself: the
// unacked substitute is retransmitted before any refresh runs.
TEST_F(DupChurnTest, DroppedSubstituteRecoveredByRetry) {
  net::FaultConfig faults;
  faults.retry_max = 3;
  faults.retry_timeout = 1.0;
  harness_.network().set_faults(faults);
  Subscribe(6);
  bool dropped = false;
  harness_.network().set_loss_filter([&dropped](const net::Message& m) {
    if (m.type != net::MessageType::kSubstitute || dropped) return false;
    dropped = true;
    return true;
  });
  Subscribe(4);  // Drain runs the retry timer: the retransmission lands.
  ASSERT_TRUE(dropped);
  EXPECT_TRUE(harness_.Audit().ok());
  EXPECT_EQ(
      harness_.recorder().delivery().retries_for(metrics::HopClass::kControl),
      1u);
  ExpectPushReaches(2, {4, 6});
}

// Property test: random subscribe/unsubscribe/churn sequences leave the
// propagation state consistent and every interested node reachable.
class DupChurnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DupChurnPropertyTest, RandomOperationsPreserveInvariants) {
  util::Rng rng(GetParam());
  topo::TreeGeneratorOptions gen;
  gen.num_nodes = 40;
  gen.max_degree = 3;
  auto tree = topo::TreeGenerator::Generate(gen, &rng);
  ASSERT_TRUE(tree.ok());

  ProtocolHarness harness(std::move(*tree), /*seed=*/GetParam() + 1);
  DupProtocol protocol(&harness.network(), &harness.tree(),
                       ProtocolOptions());
  harness.Attach(&protocol);
  protocol.OnRootPublish(1, harness.engine().Now() + 3600.0);

  std::vector<NodeId> live = harness.tree().NodesPreOrder();
  NodeId fresh = 1000;
  IndexVersion version = 1;

  for (int step = 0; step < 200; ++step) {
    const uint64_t op = rng.UniformInt(0, 5);
    const NodeId target =
        live[static_cast<size_t>(rng.UniformInt(0, live.size() - 1))];
    switch (op) {
      case 0:
      case 1:
        protocol.ForceSubscribe(target);
        break;
      case 2:
        protocol.ForceUnsubscribe(target);
        break;
      case 3: {  // Leaf join.
        ASSERT_TRUE(harness.tree().AttachLeaf(target, fresh).ok());
        protocol.OnLeafJoined(fresh, target);
        live.push_back(fresh++);
        break;
      }
      case 4: {  // Edge-split join.
        const auto& children = harness.tree().Children(target);
        if (children.empty()) break;
        const NodeId child = children[static_cast<size_t>(
            rng.UniformInt(0, children.size() - 1))];
        ASSERT_TRUE(harness.tree().SplitEdge(target, child, fresh).ok());
        protocol.OnSplitJoined(fresh, target, child);
        live.push_back(fresh++);
        break;
      }
      case 5: {  // Failure or graceful leave.
        if (live.size() <= 3) break;
        const bool graceful = rng.Bernoulli(0.5);
        if (target == harness.tree().root() && graceful) break;
        if (graceful) protocol.OnGracefulLeave(target);
        harness.Drain();
        const bool was_root = target == harness.tree().root();
        const NodeId parent =
            was_root ? kInvalidNode : harness.tree().Parent(target);
        const std::vector<NodeId> orphans = harness.tree().Children(target);
        ASSERT_TRUE(harness.tree().RemoveNode(target).ok());
        harness.network().SetNodeDown(target, true);
        protocol.OnNodeRemoved(target, parent, orphans, was_root,
                               harness.tree().root());
        live.erase(std::find(live.begin(), live.end(), target));
        if (was_root) {
          harness.Drain();
          protocol.OnRootPublish(protocol.latest_version(),
                                 protocol.latest_expiry());
        }
        break;
      }
    }
    harness.Drain();
    ASSERT_TRUE(harness.tree().Validate().ok()) << "step " << step;
    const auto audit = harness.Audit();
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();

    if (step % 20 == 19) {
      protocol.OnRootPublish(++version, harness.engine().Now() + 3600.0);
      harness.Drain();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DupChurnPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// Harsher variant: subscription churn WITHOUT draining between operations,
// so subscribe/unsubscribe/substitute messages interleave arbitrarily in
// flight (per-pair FIFO is the only ordering guarantee, as in the real
// network). After quiescence the propagation state must still be globally
// consistent.
class DupConcurrencyPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DupConcurrencyPropertyTest, InterleavedSubscriptionsConverge) {
  util::Rng rng(GetParam());
  topo::TreeGeneratorOptions gen;
  gen.num_nodes = 60;
  gen.max_degree = 4;
  auto tree = topo::TreeGenerator::Generate(gen, &rng);
  ASSERT_TRUE(tree.ok());

  ProtocolHarness harness(std::move(*tree), GetParam() + 77);
  DupProtocol protocol(&harness.network(), &harness.tree(),
                       proto::ProtocolOptions());
  harness.Attach(&protocol);
  protocol.OnRootPublish(1, harness.engine().Now() + 3600.0);

  const std::vector<NodeId> nodes = harness.tree().NodesPreOrder();
  for (int round = 0; round < 10; ++round) {
    // A burst of interleaved operations, no draining.
    for (int op = 0; op < 40; ++op) {
      const NodeId target =
          nodes[static_cast<size_t>(rng.UniformInt(0, nodes.size() - 1))];
      if (rng.Bernoulli(0.6)) {
        protocol.ForceSubscribe(target);
      } else {
        protocol.ForceUnsubscribe(target);
      }
      // Let a random slice of in-flight traffic proceed, interleaving
      // deliveries with new operations.
      for (int step = 0; step < 3; ++step) harness.engine().Step();
    }
    harness.Drain();
    const auto audit = harness.Audit();
    ASSERT_TRUE(audit.ok())
        << "round " << round << ": " << audit.ToString();

    // And a publish must reach every currently subscribed node.
    protocol.OnRootPublish(static_cast<IndexVersion>(round + 2),
                           harness.engine().Now() + 3600.0);
    harness.Drain();
    for (NodeId node : nodes) {
      if (node == harness.tree().root()) continue;
      if (protocol.SubscriberListOf(node).HasSelf()) {
        EXPECT_EQ(protocol.CacheOf(node).stored_version(),
                  static_cast<IndexVersion>(round + 2))
            << "round " << round << " node " << node;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DupConcurrencyPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{120}));

/// Exposes the slab the visitors read, so the test can rebuild what the
/// visitors used to yield: every live slab entry, collected and sorted.
class InspectableDup : public DupProtocol {
 public:
  using DupProtocol::DupProtocol;
  using DupProtocol::dup_states;
  using DupProtocol::HasState;
};

/// Checks the audit visitors against the slabs: strictly ascending ids, and
/// exactly the entries a collect-and-sort over the slab yields. Returns the
/// ids VisitSubscriberStates yielded.
std::vector<NodeId> ExpectVisitorsMatchSlabs(InspectableDup* protocol,
                                             NodeId id_bound) {
  std::vector<NodeId> caches, lists, fan_outs;
  protocol->VisitCaches(
      [&](NodeId node, const cache::IndexCache&) { caches.push_back(node); });
  protocol->VisitSubscriberStates(
      [&](NodeId node, const SubscriberList&) { lists.push_back(node); });
  protocol->VisitFanOutStates(
      [&](NodeId node, const DupProtocol::FanOutState& state) {
        EXPECT_EQ(state.slist, protocol->FindSubscriberList(node));
        fan_outs.push_back(node);
      });
  for (const std::vector<NodeId>* ids : {&caches, &lists, &fan_outs}) {
    EXPECT_EQ(std::adjacent_find(ids->begin(), ids->end(),
                                 std::greater_equal<NodeId>()),
              ids->end())
        << "ids not strictly ascending";
  }

  std::vector<NodeId> expected_dup;
  protocol->dup_states().ForEach(
      [&](NodeId node, const auto&, const auto&) {
        expected_dup.push_back(node);
      });
  std::sort(expected_dup.begin(), expected_dup.end());
  EXPECT_EQ(lists, expected_dup);
  EXPECT_EQ(fan_outs, expected_dup);

  std::vector<NodeId> expected_caches;
  for (NodeId node = 0; node < id_bound; ++node) {
    if (protocol->HasState(node)) expected_caches.push_back(node);
  }
  EXPECT_EQ(caches, expected_caches);
  return lists;
}

// The audit visitors walk the slabs in id order. Under churn — slots
// recycled by newcomers, and a departed node's state lingering until the
// protocol hears of the removal — they must still yield every entry
// exactly once, in ascending id order. The arity cap is on so the fan-out
// visitor also reads the side table.
TEST(DupVisitorContractTest, ChurnYieldsSortedSlabEntries) {
  util::Rng rng(20261018);
  topo::TreeGeneratorOptions gen;
  gen.num_nodes = 40;
  gen.max_degree = 3;
  auto tree = topo::TreeGenerator::Generate(gen, &rng);
  ASSERT_TRUE(tree.ok());

  ProtocolHarness harness(std::move(*tree), /*seed=*/11);
  DupOptions dup_options;
  dup_options.max_arity = 2;
  InspectableDup protocol(&harness.network(), &harness.tree(),
                          ProtocolOptions(), dup_options);
  harness.Attach(&protocol);
  protocol.OnRootPublish(1, harness.engine().Now() + 3600.0);
  harness.Drain();

  std::vector<NodeId> live = harness.tree().NodesPreOrder();
  NodeId fresh = 40;
  IndexVersion version = 1;
  size_t lingering_seen = 0;
  for (int step = 0; step < 300; ++step) {
    const NodeId target =
        live[static_cast<size_t>(rng.UniformInt(0, live.size() - 1))];
    switch (rng.UniformInt(0, 4)) {
      case 0:
      case 1:
        protocol.ForceSubscribe(target);
        break;
      case 2: {
        const auto& children = harness.tree().Children(target);
        if (!children.empty() && rng.Bernoulli(0.5)) {
          const NodeId child = children[static_cast<size_t>(
              rng.UniformInt(0, children.size() - 1))];
          ASSERT_TRUE(harness.tree().SplitEdge(target, child, fresh).ok());
          protocol.OnSplitJoined(fresh, target, child);
        } else {
          ASSERT_TRUE(harness.tree().AttachLeaf(target, fresh).ok());
          protocol.OnLeafJoined(fresh, target);
        }
        live.push_back(fresh++);
        break;
      }
      default: {
        if (live.size() <= 20 || target == harness.tree().root()) break;
        const NodeId parent = harness.tree().Parent(target);
        const std::vector<NodeId> orphans = harness.tree().Children(target);
        ASSERT_TRUE(harness.tree().RemoveNode(target).ok());
        harness.network().SetNodeDown(target, true);
        // The tree has released the node; the protocol has not yet heard
        // of it, so its state lingers and must still be visited.
        const std::vector<NodeId> lists =
            ExpectVisitorsMatchSlabs(&protocol, fresh);
        if (std::binary_search(lists.begin(), lists.end(), target)) {
          ++lingering_seen;
        }
        protocol.OnNodeRemoved(target, parent, orphans, /*was_root=*/false,
                               harness.tree().root());
        live.erase(std::find(live.begin(), live.end(), target));
        break;
      }
    }
    harness.Drain();
    ExpectVisitorsMatchSlabs(&protocol, fresh);
    if (step % 25 == 24) {
      protocol.OnRootPublish(++version, harness.engine().Now() + 3600.0);
      harness.Drain();
    }
    const auto audit = harness.Audit();
    ASSERT_TRUE(audit.ok()) << "step " << step << ": " << audit.ToString();
  }
  EXPECT_GT(lingering_seen, 0u);
  // Newcomers recycled departed nodes' slots.
  EXPECT_LT(harness.tree().registry().slot_count(),
            static_cast<size_t>(fresh));
}

}  // namespace
}  // namespace dupnet::core
