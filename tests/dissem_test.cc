#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "audit/invariant_checker.h"
#include "dissem/bayeux.h"
#include "dissem/dup_backend.h"
#include "dissem/scribe.h"
#include "test_util.h"

namespace dupnet::dissem {
namespace {

using ::dupnet::testing::MakePaperTree;
using ::dupnet::testing::ProtocolHarness;

/// Harness variant that wires a DisseminationProtocol instead of a
/// consistency scheme.
class DissemFixture : public ::testing::Test {
 protected:
  DissemFixture() : harness_(MakePaperTree()) {}

  template <typename T>
  T* Make() {
    auto protocol = std::make_unique<T>(&harness_.network(),
                                        &harness_.tree());
    T* raw = protocol.get();
    protocol_ = std::move(protocol);
    harness_.network().set_sink(raw);
    protocol_->set_delivery_callback(
        [this](NodeId node, IndexVersion version) {
          deliveries_[version].insert(node);
        });
    return raw;
  }

  void Publish(IndexVersion version) {
    protocol_->Publish(version, harness_.engine().Now() + 3600.0);
    harness_.Drain();
  }

  void SubscribeAll(std::initializer_list<NodeId> nodes) {
    for (NodeId n : nodes) protocol_->Subscribe(n);
    harness_.Drain();
  }

  uint64_t PushHops() { return harness_.recorder().hops().push(); }
  uint64_t ControlHops() { return harness_.recorder().hops().control(); }

  ProtocolHarness harness_;
  std::unique_ptr<DisseminationProtocol> protocol_;
  std::map<IndexVersion, std::set<NodeId>> deliveries_;
};

// --- SCRIBE ---------------------------------------------------------------

using ScribeTest = DissemFixture;

TEST_F(ScribeTest, JoinBuildsMulticastTreeAlongRoutes) {
  auto* scribe = Make<ScribeDissemination>();
  SubscribeAll({6});
  // Join climbed 6 -> 5 -> 3 -> 2 -> 1; every hop is on the tree now.
  EXPECT_TRUE(scribe->OnMulticastTree(5));
  EXPECT_TRUE(scribe->OnMulticastTree(3));
  EXPECT_TRUE(scribe->ChildrenOf(5).count(6));
  EXPECT_TRUE(scribe->ChildrenOf(1).count(2));
}

TEST_F(ScribeTest, SecondJoinStopsAtExistingTree) {
  auto* scribe = Make<ScribeDissemination>();
  SubscribeAll({6});
  const uint64_t control = ControlHops();
  SubscribeAll({4});
  // N4's join is caught by N3 (already a forwarder): exactly one hop.
  EXPECT_EQ(ControlHops() - control, 1u);
  EXPECT_TRUE(scribe->ChildrenOf(3).count(4));
}

TEST_F(ScribeTest, PublishFlowsHopByHop) {
  Make<ScribeDissemination>();
  SubscribeAll({4, 6});
  const uint64_t before = PushHops();
  Publish(1);
  // Paper Figure 2 arithmetic: same five hops as CUP's push
  // (N1->N2->N3->{N4, N5->N6}).
  EXPECT_EQ(PushHops() - before, 5u);
  EXPECT_TRUE(deliveries_[1].count(4));
  EXPECT_TRUE(deliveries_[1].count(6));
  // Forwarders relay but do not "deliver".
  EXPECT_FALSE(deliveries_[1].count(5));
}

TEST_F(ScribeTest, LeavePrunesEmptyBranches) {
  auto* scribe = Make<ScribeDissemination>();
  SubscribeAll({6});
  protocol_->Unsubscribe(6);
  harness_.Drain();
  EXPECT_FALSE(scribe->OnMulticastTree(6));
  EXPECT_FALSE(scribe->OnMulticastTree(5));
  EXPECT_FALSE(scribe->OnMulticastTree(3));
  const uint64_t before = PushHops();
  Publish(1);
  EXPECT_EQ(PushHops() - before, 0u);
}

TEST_F(ScribeTest, ForwarderThatIsAlsoSubscriberStaysAfterChildLeaves) {
  auto* scribe = Make<ScribeDissemination>();
  SubscribeAll({5, 6});
  protocol_->Unsubscribe(6);
  harness_.Drain();
  EXPECT_TRUE(scribe->OnMulticastTree(5));
  Publish(1);
  EXPECT_TRUE(deliveries_[1].count(5));
  EXPECT_FALSE(deliveries_[1].count(6));
}

TEST_F(ScribeTest, MaxStateBoundedByChildren) {
  auto* scribe = Make<ScribeDissemination>();
  SubscribeAll({2, 3, 4, 5, 6, 7, 8});
  // No node has more multicast children than tree children.
  EXPECT_LE(scribe->MaxNodeState(), 2u);
}

// --- Bayeux -----------------------------------------------------------------

using BayeuxTest = DissemFixture;

TEST_F(BayeuxTest, JoinTravelsAllTheWayToRoot) {
  auto* bayeux = Make<BayeuxDissemination>();
  const uint64_t control = ControlHops();
  SubscribeAll({6});
  EXPECT_EQ(ControlHops() - control, 4u);  // Depth of N6.
  EXPECT_TRUE(bayeux->members().count(6));
}

TEST_F(BayeuxTest, RootStateGrowsWithMembership) {
  auto* bayeux = Make<BayeuxDissemination>();
  SubscribeAll({2, 4, 6, 7, 8});
  EXPECT_EQ(bayeux->MaxNodeState(), 5u);  // All state at the rendezvous.
}

TEST_F(BayeuxTest, PublishUnicastsDirectly) {
  Make<BayeuxDissemination>();
  SubscribeAll({4, 6});
  const uint64_t before = PushHops();
  Publish(1);
  EXPECT_EQ(PushHops() - before, 2u);  // One direct hop per member.
  EXPECT_TRUE(deliveries_[1].count(4));
  EXPECT_TRUE(deliveries_[1].count(6));
}

TEST_F(BayeuxTest, UnsubscribeRemovesMember) {
  auto* bayeux = Make<BayeuxDissemination>();
  SubscribeAll({6});
  protocol_->Unsubscribe(6);
  harness_.Drain();
  EXPECT_FALSE(bayeux->members().count(6));
  Publish(1);
  EXPECT_TRUE(deliveries_[1].empty());
}

TEST_F(BayeuxTest, RootCanSubscribeItself) {
  auto* bayeux = Make<BayeuxDissemination>();
  SubscribeAll({1});
  EXPECT_TRUE(bayeux->members().count(1));
  Publish(1);
  EXPECT_TRUE(deliveries_[1].count(1));
}

// --- DUP backend ------------------------------------------------------------

using DupBackendTest = DissemFixture;

TEST_F(DupBackendTest, DeliversToSubscribersSkippingIntermediates) {
  Make<DupDissemination>();
  SubscribeAll({4, 6});
  const uint64_t before = PushHops();
  Publish(1);
  EXPECT_EQ(PushHops() - before, 3u);  // Figure 2: N1->N3, N3->N4, N3->N6.
  EXPECT_TRUE(deliveries_[1].count(4));
  EXPECT_TRUE(deliveries_[1].count(6));
}

TEST_F(DupBackendTest, StateBoundedByDegree) {
  auto* dup = Make<DupDissemination>();
  SubscribeAll({2, 3, 4, 5, 6, 7, 8});
  EXPECT_LE(dup->MaxNodeState(), 3u);  // children + self entry.
  EXPECT_TRUE(audit::AuditQuiescent(harness_.tree(), harness_.network(),
                                    dup->protocol())
                  .ok());
}

// --- Cross-scheme comparison (paper Section V, quantified) ------------------

TEST(DisseminationComparison, PushCostOrderingMatchesSectionV) {
  // SCRIBE forwards hop-by-hop like CUP; DUP skips the intermediates;
  // Bayeux unicasts directly. For the Figure-2 subscriber set {N4, N6}:
  // SCRIBE = 5 hops, DUP = 3, Bayeux = 2.
  auto run = [](auto* protocol, ProtocolHarness& harness) {
    protocol->Subscribe(4);
    protocol->Subscribe(6);
    harness.Drain();
    const uint64_t before = harness.recorder().hops().push();
    protocol->Publish(1, harness.engine().Now() + 3600.0);
    harness.Drain();
    return harness.recorder().hops().push() - before;
  };
  ProtocolHarness h1(MakePaperTree()), h2(MakePaperTree()),
      h3(MakePaperTree());
  ScribeDissemination scribe(&h1.network(), &h1.tree());
  h1.network().set_sink(&scribe);
  BayeuxDissemination bayeux(&h2.network(), &h2.tree());
  h2.network().set_sink(&bayeux);
  DupDissemination dup(&h3.network(), &h3.tree());
  h3.network().set_sink(&dup);

  const uint64_t scribe_hops = run(&scribe, h1);
  const uint64_t bayeux_hops = run(&bayeux, h2);
  const uint64_t dup_hops = run(&dup, h3);
  EXPECT_EQ(scribe_hops, 5u);
  EXPECT_EQ(dup_hops, 3u);
  EXPECT_EQ(bayeux_hops, 2u);
}

TEST(DisseminationComparison, StateOrderingMatchesSectionV) {
  // Bayeux concentrates O(group) state at the root; SCRIBE and DUP stay
  // degree-bounded ("DUP is more scalable than Bayeux because each node
  // only needs to maintain the information of its direct children").
  ProtocolHarness h1(MakePaperTree()), h2(MakePaperTree()),
      h3(MakePaperTree());
  ScribeDissemination scribe(&h1.network(), &h1.tree());
  h1.network().set_sink(&scribe);
  BayeuxDissemination bayeux(&h2.network(), &h2.tree());
  h2.network().set_sink(&bayeux);
  DupDissemination dup(&h3.network(), &h3.tree());
  h3.network().set_sink(&dup);

  for (NodeId n = 2; n <= 8; ++n) {
    scribe.Subscribe(n);
    bayeux.Subscribe(n);
    dup.Subscribe(n);
  }
  h1.Drain();
  h2.Drain();
  h3.Drain();
  EXPECT_EQ(bayeux.MaxNodeState(), 7u);
  EXPECT_LE(scribe.MaxNodeState(), 2u);
  EXPECT_LE(dup.MaxNodeState(), 3u);
}

}  // namespace
}  // namespace dupnet::dissem
