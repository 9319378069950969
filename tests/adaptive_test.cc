// Adaptive per-key scheme migration (ISSUE 9 tentpole): the
// proto::AdaptiveController decision logic, the core::AdaptiveProtocol
// handover machinery (PCX <-> CUP <-> DUP on the live tree), the
// arity-capped DUP fan-out planner, and the end-to-end determinism
// contracts (audit neutrality, shard and job bit-identity). Lives in its
// own binary (ctest label "adaptive") so the CI ThreadSanitizer job can
// run just the migration stress suite.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_protocol.h"
#include "core/dup_protocol.h"
#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/parallel_runner.h"
#include "multikey/simulation.h"
#include "proto/adaptive_controller.h"
#include "test_util.h"

namespace dupnet {
namespace {

using ::dupnet::testing::MakePaperTree;
using ::dupnet::testing::ProtocolHarness;
using core::AdaptiveProtocol;
using core::DupOptions;
using core::DupProtocol;
using experiment::ExperimentConfig;
using experiment::Scheme;
using experiment::SimulationDriver;
using proto::AdaptiveController;
using proto::AdaptiveOptions;
using proto::AdaptiveRegime;
using proto::ProtocolOptions;

// ---------------------------------------------------------------------------
// Controller decision logic (pure, no protocol attached).
// ---------------------------------------------------------------------------

TEST(AdaptiveControllerTest, StartsInPcxAndStaysColdWithoutQueries) {
  AdaptiveController controller{AdaptiveOptions()};
  EXPECT_EQ(controller.regime(), AdaptiveRegime::kPcx);
  controller.RecordUpdate(0.0);
  EXPECT_EQ(controller.Tick(0.0), AdaptiveRegime::kPcx);
  EXPECT_TRUE(controller.migrations().empty());
}

TEST(AdaptiveControllerTest, PromotesToCupWhenRatioReachesEntryBar) {
  // Defaults: cup_enter 2, dup_enter 16. One update, four queries: ratio 4.
  AdaptiveController controller{AdaptiveOptions()};
  controller.RecordUpdate(0.0);
  for (int i = 0; i < 4; ++i) controller.RecordQuery(0.0);
  EXPECT_EQ(controller.Tick(1.0), AdaptiveRegime::kCup);
  ASSERT_EQ(controller.migrations().size(), 1u);
  EXPECT_EQ(controller.migrations()[0].from, AdaptiveRegime::kPcx);
  EXPECT_EQ(controller.migrations()[0].to, AdaptiveRegime::kCup);
  EXPECT_EQ(controller.migrations()[0].at, 1.0);
}

TEST(AdaptiveControllerTest, FlashCrowdPromotesStraightToDup) {
  AdaptiveController controller{AdaptiveOptions()};
  controller.RecordUpdate(0.0);
  for (int i = 0; i < 32; ++i) controller.RecordQuery(0.0);
  // Ratio 32 >= dup_enter 16: PCX jumps directly to DUP, no CUP stopover.
  EXPECT_EQ(controller.Tick(1.0), AdaptiveRegime::kDup);
  ASSERT_EQ(controller.migrations().size(), 1u);
  EXPECT_EQ(controller.migrations()[0].from, AdaptiveRegime::kPcx);
  EXPECT_EQ(controller.migrations()[0].to, AdaptiveRegime::kDup);
}

TEST(AdaptiveControllerTest, HysteresisDeadBandHoldsTheRegime) {
  // Enter CUP at ratio 4, then sit at ratio 1.5 — below the entry bar (2)
  // but above the exit bar (2 * 0.5 = 1). The dead band must hold CUP.
  AdaptiveController controller{AdaptiveOptions()};
  controller.RecordUpdate(0.0);
  for (int i = 0; i < 4; ++i) controller.RecordQuery(0.0);
  ASSERT_EQ(controller.Tick(1.0), AdaptiveRegime::kCup);

  // Slide past the 3600 s window so only the new events count.
  const double t = 5000.0;
  controller.RecordUpdate(t);
  controller.RecordUpdate(t);
  for (int i = 0; i < 3; ++i) controller.RecordQuery(t);
  EXPECT_EQ(controller.Tick(t), AdaptiveRegime::kCup);
  EXPECT_EQ(controller.migrations().size(), 1u);

  // Another window later with no demand at all: ratio 0 drops below the
  // exit bar and the key falls back to PCX.
  EXPECT_EQ(controller.Tick(10000.0), AdaptiveRegime::kPcx);
  ASSERT_EQ(controller.migrations().size(), 2u);
  EXPECT_EQ(controller.migrations()[1].from, AdaptiveRegime::kCup);
  EXPECT_EQ(controller.migrations()[1].to, AdaptiveRegime::kPcx);
}

TEST(AdaptiveControllerTest, DwellDampsBackToBackMigrations) {
  AdaptiveOptions options;
  options.dwell_updates = 3;
  AdaptiveController controller{options};
  controller.RecordUpdate(0.0);
  for (int i = 0; i < 4; ++i) controller.RecordQuery(0.0);
  ASSERT_EQ(controller.Tick(1.0), AdaptiveRegime::kCup);  // Migration tick 1.

  // Demand explodes immediately; DUP is desired but dwell_updates = 3
  // blocks the migration until three ticks have passed since the last one.
  for (int i = 0; i < 60; ++i) controller.RecordQuery(1.0);
  EXPECT_EQ(controller.Tick(2.0), AdaptiveRegime::kCup);  // Tick 2: 1 < 3.
  EXPECT_EQ(controller.Tick(3.0), AdaptiveRegime::kCup);  // Tick 3: 2 < 3.
  EXPECT_EQ(controller.Tick(4.0), AdaptiveRegime::kDup);  // Tick 4: 3 >= 3.
  EXPECT_EQ(controller.migrations().size(), 2u);
}

TEST(AdaptiveControllerTest, CollapsingFlashCrowdFallsStraightToPcx) {
  AdaptiveController controller{AdaptiveOptions()};
  controller.RecordUpdate(0.0);
  for (int i = 0; i < 32; ++i) controller.RecordQuery(0.0);
  ASSERT_EQ(controller.Tick(1.0), AdaptiveRegime::kDup);
  // The crowd evaporates: ratio 0 is below even the CUP exit bar, so the
  // demotion skips CUP entirely (dwell satisfied: ticks 1 -> 3).
  controller.Tick(5000.0);
  EXPECT_EQ(controller.Tick(5001.0), AdaptiveRegime::kPcx);
  ASSERT_EQ(controller.migrations().size(), 2u);
  EXPECT_EQ(controller.migrations()[1].to, AdaptiveRegime::kPcx);
}

TEST(AdaptiveControllerTest, DecisionsAreAPureFunctionOfTheEventStream) {
  // Two controllers fed the identical stream must produce bit-identical
  // migration logs — the shard/job determinism contract in miniature.
  AdaptiveController a{AdaptiveOptions()};
  AdaptiveController b{AdaptiveOptions()};
  const double times[] = {0.0, 10.0, 500.0, 570.0, 1140.0, 4000.0, 4570.0};
  for (AdaptiveController* c : {&a, &b}) {
    for (double t : times) {
      for (int i = 0; i < 8; ++i) c->RecordQuery(t);
      c->RecordUpdate(t);
      c->Tick(t);
    }
  }
  EXPECT_EQ(a.regime(), b.regime());
  ASSERT_EQ(a.migrations().size(), b.migrations().size());
  for (size_t i = 0; i < a.migrations().size(); ++i) {
    EXPECT_TRUE(a.migrations()[i] == b.migrations()[i]) << "migration " << i;
  }
}

// ---------------------------------------------------------------------------
// Protocol-level handover on the paper tree.
// ---------------------------------------------------------------------------

class AdaptiveProtocolTest : public ::testing::Test {
 protected:
  AdaptiveProtocolTest() : harness_(MakePaperTree()) {}

  void MakeProtocol(DupOptions dup_options = DupOptions(),
                    AdaptiveOptions adaptive_options = AdaptiveOptions()) {
    protocol_ = std::make_unique<AdaptiveProtocol>(
        &harness_.network(), &harness_.tree(), ProtocolOptions(), dup_options,
        adaptive_options);
    harness_.Attach(protocol_.get());
  }

  /// Sum of the live fan-out footprint: subscriber-list entries plus
  /// delegation-plan entries plus relay duties across all nodes.
  size_t DupFootprint() const {
    size_t total = 0;
    protocol_->VisitFanOutStates(
        [&](NodeId, const DupProtocol::FanOutState& state) {
          total += state.slist->size() + state.delegations->size() +
                   state.relays->size();
        });
    return total;
  }

  ProtocolHarness harness_;
  std::unique_ptr<AdaptiveProtocol> protocol_;
};

TEST_F(AdaptiveProtocolTest, StartsInPcxAndServesPulls) {
  MakeProtocol();
  EXPECT_EQ(protocol_->name(), "adaptive");
  EXPECT_EQ(protocol_->regime(), AdaptiveRegime::kPcx);
  harness_.Publish(1);
  EXPECT_EQ(protocol_->regime(), AdaptiveRegime::kPcx);
  harness_.QueryAt(6);
  EXPECT_EQ(protocol_->CacheOf(6).stored_version(), 1u);
  EXPECT_EQ(DupFootprint(), 0u);  // No push state of any kind in PCX.
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(AdaptiveProtocolTest, HotKeyMigratesToDupAndPushes) {
  MakeProtocol();
  harness_.Publish(1);
  harness_.QueryAt(6, 20);
  harness_.QueryAt(4, 20);
  // Tick at the next publish: 40 queries / 2 in-window updates = 20 >= 16.
  harness_.Publish(2);
  EXPECT_EQ(protocol_->regime(), AdaptiveRegime::kDup);
  // The handover used real subscribes: both interested nodes now hold a
  // SELF entry and the virtual path exists upstream.
  EXPECT_TRUE(protocol_->SubscriberListOf(6).HasSelf());
  EXPECT_TRUE(protocol_->SubscriberListOf(4).HasSelf());
  EXPECT_TRUE(protocol_->InDupTree(3));  // Branch point for 4 and 6.
  // The next update is pushed, not pulled.
  harness_.Publish(3);
  EXPECT_EQ(protocol_->CacheOf(6).stored_version(), 3u);
  EXPECT_EQ(protocol_->CacheOf(4).stored_version(), 3u);
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(AdaptiveProtocolTest, CoolingKeyLeavesDupWithNoStateStranded) {
  MakeProtocol();
  harness_.Publish(1);
  harness_.QueryAt(6, 20);
  harness_.QueryAt(4, 20);
  harness_.Publish(2);
  ASSERT_EQ(protocol_->regime(), AdaptiveRegime::kDup);
  ASSERT_GT(DupFootprint(), 0u);

  // Demand evaporates: slide past the 3600 s window, then tick twice (the
  // dwell bound holds the first demotion opportunity back by one tick).
  harness_.AdvanceTime(4000.0);
  harness_.Publish(3);
  harness_.Publish(4);
  EXPECT_EQ(protocol_->regime(), AdaptiveRegime::kPcx);
  // Handover completeness: the teardown unsubscribes cascaded and nothing
  // is left — no subscriber stranded, no delegation, no relay duty.
  EXPECT_EQ(DupFootprint(), 0u);
  // AuditQuiescent forces the global pass, which includes the
  // adaptive-handover invariant.
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(AdaptiveProtocolTest, WarmKeyRunsCupWithDemandDrivenPushes) {
  MakeProtocol();
  harness_.Publish(1);
  harness_.QueryAt(6, 8);  // First query climbs to the root, seeding demand.
  harness_.Publish(2);     // 8 queries / 2 updates = 4: CUP territory.
  ASSERT_EQ(protocol_->regime(), AdaptiveRegime::kCup);
  // Node 6 is interested (> threshold_c queries); its next query fires the
  // one-shot interest notification toward its parent.
  harness_.QueryAt(6);
  const std::vector<NodeId> notified =
      protocol_->cup_interest().NotifiedNodes();
  EXPECT_TRUE(std::binary_search(notified.begin(), notified.end(), NodeId{6}));
  EXPECT_TRUE(protocol_->cup_interest().HasBranchEntry(5, 6));
  // The publish travels hop-by-hop down the demand path 1-2-3-5-6.
  harness_.Publish(3);
  EXPECT_EQ(protocol_->regime(), AdaptiveRegime::kCup);
  EXPECT_EQ(protocol_->CacheOf(6).stored_version(), 3u);
  // CUP's weakness, faithfully reproduced: the uninterested intermediate
  // node 5 received the update too.
  EXPECT_EQ(protocol_->CacheOf(5).stored_version(), 3u);
  // No DUP machinery was engaged at any point.
  EXPECT_EQ(DupFootprint(), 0u);
  EXPECT_TRUE(harness_.Audit().ok());
}

// ---------------------------------------------------------------------------
// Arity-capped DUP fan-out (flash-crowd load balancing).
// ---------------------------------------------------------------------------

/// A star: the authority with `leaves` direct children — the worst-case
/// fan-out topology (every subscriber is its own branch at the root).
topo::IndexSearchTree MakeStarTree(NodeId leaves) {
  topo::IndexSearchTree tree(/*root=*/1);
  for (NodeId i = 0; i < leaves; ++i) {
    DUP_CHECK_OK(tree.AttachLeaf(1, 2 + i));
  }
  return tree;
}

class ArityCapTest : public ::testing::Test {
 protected:
  static constexpr NodeId kLeaves = 16;

  ArityCapTest() : harness_(MakeStarTree(kLeaves)) {}

  void MakeProtocol(uint32_t max_arity) {
    DupOptions dup_options;
    dup_options.max_arity = max_arity;
    protocol_ = std::make_unique<DupProtocol>(
        &harness_.network(), &harness_.tree(), ProtocolOptions(), dup_options);
    harness_.Attach(protocol_.get());
    harness_.Publish(1);
  }

  void SubscribeAllLeaves() {
    for (NodeId i = 0; i < kLeaves; ++i) protocol_->ForceSubscribe(2 + i);
    harness_.Drain();
  }

  void ExpectPushReachesAllLeaves(IndexVersion version) {
    harness_.Publish(version);
    for (NodeId i = 0; i < kLeaves; ++i) {
      EXPECT_EQ(protocol_->CacheOf(2 + i).stored_version(), version)
          << "leaf " << 2 + i;
    }
  }

  ProtocolHarness harness_;
  std::unique_ptr<DupProtocol> protocol_;
};

TEST_F(ArityCapTest, UncappedRootPushesToEverySubscriberDirectly) {
  MakeProtocol(/*max_arity=*/0);
  SubscribeAllLeaves();
  EXPECT_EQ(protocol_->MaxDirectFanOut(), static_cast<size_t>(kLeaves));
  ExpectPushReachesAllLeaves(2);
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(ArityCapTest, CapBoundsFanOutAndRelaysStillReachEveryone) {
  MakeProtocol(/*max_arity=*/4);
  SubscribeAllLeaves();
  // 16 subscribers under cap 4: the root pushes to 4 directly and
  // delegates the other 12 across its first subscribers, at most 4 duties
  // per delegate — so no node sends more than 4 pushes per update.
  EXPECT_LE(protocol_->MaxDirectFanOut(), 4u);
  ExpectPushReachesAllLeaves(2);
  // The audit's arity invariants (plan equality, direct bound, delegation
  // consistency, per-delegator relay load) all pass.
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(ArityCapTest, CapOneDegeneratesToARelayChainAndStillDelivers) {
  MakeProtocol(/*max_arity=*/1);
  SubscribeAllLeaves();
  EXPECT_LE(protocol_->MaxDirectFanOut(), 1u);
  ExpectPushReachesAllLeaves(2);
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(ArityCapTest, PlanRepairsAfterDelegateFailure) {
  MakeProtocol(/*max_arity=*/4);
  SubscribeAllLeaves();
  // Node 2 is the first subscriber — a delegate carrying relay duties.
  // Fail it the way the driver would: tree repair, node marked down,
  // protocol notified.
  const NodeId failed = 2;
  const NodeId parent = harness_.tree().Parent(failed);
  const std::vector<NodeId> children = harness_.tree().Children(failed);
  ASSERT_TRUE(harness_.tree().RemoveNode(failed).ok());
  harness_.network().SetNodeDown(failed, true);
  protocol_->OnNodeRemoved(failed, parent, children, /*was_root=*/false,
                           harness_.tree().root());
  harness_.Drain();
  // The survivors re-planned: the cap still holds, nobody references the
  // dead node, and the next update reaches all 15 remaining leaves.
  EXPECT_LE(protocol_->MaxDirectFanOut(), 4u);
  harness_.Publish(2);
  for (NodeId i = 1; i < kLeaves; ++i) {
    EXPECT_EQ(protocol_->CacheOf(2 + i).stored_version(), 2u)
        << "leaf " << 2 + i;
  }
  EXPECT_TRUE(harness_.Audit().ok());
}

TEST_F(ArityCapTest, UnsubscribesShrinkThePlanBackToDirectPushes) {
  MakeProtocol(/*max_arity=*/4);
  SubscribeAllLeaves();
  // Drop to 3 subscribers: below the cap, the plan must empty out.
  for (NodeId i = 3; i < kLeaves; ++i) protocol_->ForceUnsubscribe(2 + i);
  harness_.Drain();
  size_t delegations = 0, relays = 0;
  protocol_->VisitFanOutStates(
      [&](NodeId, const DupProtocol::FanOutState& state) {
        delegations += state.delegations->size();
        relays += state.relays->size();
      });
  EXPECT_EQ(delegations, 0u);
  EXPECT_EQ(relays, 0u);
  // The push reaches the three remaining subscribers directly and nobody
  // else: the departed leaves are out of the plan, not strandees.
  harness_.Publish(2);
  for (NodeId i = 0; i < kLeaves; ++i) {
    // Version 1 predates every subscription, so the departed leaves have
    // never cached anything at all.
    const IndexVersion expected = i < 3 ? 2 : 0;
    EXPECT_EQ(protocol_->CacheOf(2 + i).stored_version(), expected)
        << "leaf " << 2 + i;
  }
  EXPECT_TRUE(harness_.Audit().ok());
}

// ---------------------------------------------------------------------------
// End-to-end driver runs: migration stress + determinism contracts.
// ---------------------------------------------------------------------------

/// A three-act workload on one key: warm trickle (CUP territory), a flash
/// crowd with a drifting hot set (DUP), then near-silence (back to PCX).
ExperimentConfig MigrationScenario() {
  ExperimentConfig config;
  config.scheme = Scheme::kAdaptive;
  config.num_nodes = 128;
  config.lambda = 0.5;
  config.ttl = 300.0;
  config.push_lead = 30.0;  // Update period 270 s: ~12 controller ticks.
  config.warmup_time = 600.0;
  config.measure_time = 2400.0;
  config.seed = 11;
  config.dup.max_arity = 4;
  config.adaptive.demand_window = 600.0;
  config.adaptive.cup_enter_per_update = 30.0;
  config.adaptive.dup_enter_per_update = 400.0;
  config.adaptive.query_saturation = 8192;
  config.phases = {{1200.0, 16.0, 16}, {1800.0, 0.01, 0}};
  return config;
}

TEST(AdaptiveDriverTest, MigrationScenarioVisitsAllThreeRegimes) {
  ExperimentConfig config = MigrationScenario();
  config.audit_mode = audit::AuditMode::kParanoid;
  SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  driver.RunToCompletion();
  ASSERT_NE(driver.audit_checker(), nullptr);
  EXPECT_GT(driver.audit_checker()->checks_run(), 0u);
  const auto audit = driver.audit_checker()->ToStatus();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  const auto& migrations =
      driver.adaptive_protocol()->controller().migrations();
  ASSERT_GE(migrations.size(), 2u) << "scenario produced no migrations";
  bool entered_dup = false, left_dup = false;
  for (const auto& m : migrations) {
    if (m.to == AdaptiveRegime::kDup) entered_dup = true;
    if (m.from == AdaptiveRegime::kDup) left_dup = true;
  }
  EXPECT_TRUE(entered_dup);
  EXPECT_TRUE(left_dup);
  // The flash crowd ran under the cap.
  EXPECT_LE(driver.adaptive_protocol()->MaxDirectFanOut(), 4u);
}

TEST(AdaptiveDriverTest, MigrationStressSurvivesChurnAndLoss) {
  ExperimentConfig config = MigrationScenario();
  config.num_nodes = 64;
  config.audit_mode = audit::AuditMode::kParanoid;
  config.churn.join_rate = 0.01;
  config.churn.leave_rate = 0.005;
  config.churn.fail_rate = 0.005;
  config.churn.detect_delay = 5.0;
  config.faults.loss_rate = 0.05;
  config.faults.retry_max = 3;
  config.faults.retry_timeout = 1.0;
  config.faults.retry_backoff = 2.0;
  config.faults.refresh_interval = 150.0;
  SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  driver.RunToCompletion();
  ASSERT_NE(driver.audit_checker(), nullptr);
  const auto audit = driver.audit_checker()->ToStatus();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
}

/// Field-by-field bit-identity of the metrics two runs produced.
void ExpectSameMetrics(const metrics::RunMetrics& a,
                       const metrics::RunMetrics& b, const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.avg_latency_hops, b.avg_latency_hops);
  EXPECT_EQ(a.avg_cost_hops, b.avg_cost_hops);
  EXPECT_EQ(a.local_hit_rate, b.local_hit_rate);
  EXPECT_EQ(a.stale_rate, b.stale_rate);
  EXPECT_EQ(a.hops.request(), b.hops.request());
  EXPECT_EQ(a.hops.reply(), b.hops.reply());
  EXPECT_EQ(a.hops.push(), b.hops.push());
  EXPECT_EQ(a.hops.control(), b.hops.control());
  EXPECT_EQ(a.delivery_ratio, b.delivery_ratio);
  EXPECT_EQ(a.delivery.total_sent(), b.delivery.total_sent());
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
  EXPECT_EQ(a.latency_max, b.latency_max);
}

TEST(AdaptiveDriverTest, ParanoidAuditIsMetricsAndMigrationNeutral) {
  // The auditor observes only: metrics AND the migration log must be
  // bit-identical between audit off and audit paranoid.
  auto run = [](audit::AuditMode mode, metrics::RunMetrics* metrics) {
    ExperimentConfig config = MigrationScenario();
    config.audit_mode = mode;
    SimulationDriver driver(config);
    DUP_CHECK_OK(driver.Init());
    driver.RunToCompletion();
    *metrics = driver.Collect();
    return driver.adaptive_protocol()->controller().migrations();
  };
  metrics::RunMetrics off_metrics, paranoid_metrics;
  const auto off = run(audit::AuditMode::kOff, &off_metrics);
  const auto paranoid = run(audit::AuditMode::kParanoid, &paranoid_metrics);
  ExpectSameMetrics(off_metrics, paranoid_metrics, "audit off vs paranoid");
  ASSERT_EQ(off.size(), paranoid.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_TRUE(off[i] == paranoid[i]) << "migration " << i;
  }
}

TEST(AdaptiveDriverTest, MetricsBitIdenticalAtAnyJobCount) {
  const ExperimentConfig config = MigrationScenario();
  auto serial = SimulationDriver::Run(config);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  std::vector<ExperimentConfig> batch(3, config);
  for (size_t jobs : {1u, 4u}) {
    experiment::ParallelRunner runner(jobs);
    const auto outcomes = runner.RunBatch(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      ExpectSameMetrics(outcomes[i].metrics, *serial,
                        ("jobs=" + std::to_string(jobs)).c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Multikey sharding: per-key migration decisions are shard- and
// job-layout-invariant.
// ---------------------------------------------------------------------------

TEST(AdaptiveMultiKeyTest, MigrationsBitIdenticalAcrossShardsAndJobs) {
  multikey::MultiKeyConfig base;
  base.scheme = Scheme::kAdaptive;
  base.num_nodes = 64;
  base.num_keys = 8;
  base.lambda = 4.0;
  base.ttl = 300.0;
  base.push_lead = 30.0;
  base.warmup_time = 600.0;
  base.measure_time = 1800.0;
  base.seed = 7;
  base.dup.max_arity = 4;
  base.adaptive.demand_window = 600.0;

  base.shards = 1;
  base.jobs = 1;
  const auto reference = multikey::MultiKeySimulation::Run(base);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // The Zipf-hot head keys should actually migrate in this workload,
  // otherwise the bit-identity below is vacuous.
  size_t total_migrations = 0;
  for (const auto& key : reference->keys) {
    total_migrations += key.migrations.size();
  }
  ASSERT_GT(total_migrations, 0u);

  for (size_t shards : {2u, 4u}) {
    for (size_t jobs : {1u, 4u}) {
      multikey::MultiKeyConfig config = base;
      config.shards = shards;
      config.jobs = jobs;
      const auto result = multikey::MultiKeySimulation::Run(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " jobs=" + std::to_string(jobs));
      ExpectSameMetrics(result->aggregate, reference->aggregate, "aggregate");
      ASSERT_EQ(result->keys.size(), reference->keys.size());
      for (size_t k = 0; k < result->keys.size(); ++k) {
        const auto& got = result->keys[k].migrations;
        const auto& want = reference->keys[k].migrations;
        ASSERT_EQ(got.size(), want.size()) << "key " << k;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == want[i]) << "key " << k << " migration " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dupnet
