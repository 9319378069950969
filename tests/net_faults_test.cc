// Tests for the fault-injection network layer (docs/fault-injection.md):
// loss/jitter determinism, the ack/timeout/retry machinery, the send-time
// drop accounting, and whole-simulation determinism across job counts when
// faults are armed.

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/replicator.h"
#include "metrics/recorder.h"
#include "net/fault_injection.h"
#include "net/message.h"
#include "net/overlay_network.h"
#include "sim/engine.h"
#include "test_util.h"
#include "util/rng.h"

namespace dupnet::net {
namespace {

/// Message sink logging every delivery and its time.
struct DeliveryLog : public MessageSink {
  const sim::Engine* engine = nullptr;
  std::vector<Message> delivered;
  std::vector<sim::SimTime> times;

  void OnMessage(const Message& m) override {
    delivered.push_back(m);
    times.push_back(engine->Now());
  }
};

/// One self-contained network whose deliveries are logged.
class Fixture {
 public:
  explicit Fixture(uint64_t seed) : rng_(seed) {
    network_ = std::make_unique<OverlayNetwork>(&engine_, &rng_, &recorder_,
                                                /*mean_hop_latency=*/0.1);
    log_.engine = &engine_;
    network_->set_sink(&log_);
  }

  void Send(MessageType type, NodeId from, NodeId to) {
    Message m;
    m.type = type;
    m.from = from;
    m.to = to;
    network_->Send(std::move(m));
  }

  sim::Engine engine_;
  util::Rng rng_;
  metrics::Recorder recorder_;
  std::unique_ptr<OverlayNetwork> network_;
  DeliveryLog log_;
};

FaultConfig LossyConfig(double loss_rate) {
  FaultConfig faults;
  faults.loss_rate = loss_rate;
  return faults;
}

FaultConfig ReliableConfig(uint32_t retry_max, double timeout = 1.0) {
  FaultConfig faults;
  faults.retry_max = retry_max;
  faults.retry_timeout = timeout;
  faults.retry_backoff = 2.0;
  return faults;
}

TEST(FaultConfigTest, DefaultIsInactiveAndValid) {
  FaultConfig faults;
  EXPECT_FALSE(faults.lossy());
  EXPECT_FALSE(faults.reliable());
  EXPECT_FALSE(faults.active());
  EXPECT_TRUE(faults.Validate().ok());
}

TEST(FaultConfigTest, ValidateRejectsBadValues) {
  FaultConfig faults;
  faults.loss_rate = 1.5;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultConfig();
  faults.jitter = -0.1;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultConfig();
  faults.retry_max = 3;
  faults.retry_timeout = 0.0;
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultConfig();
  faults.retry_max = 3;
  faults.retry_backoff = 0.5;
  EXPECT_FALSE(faults.Validate().ok());
}

TEST(FaultConfigTest, ValidateRejectsNonFiniteKnobs) {
  // Regression pin: the old range checks (`loss_rate < 0 || loss_rate > 1`
  // style) were all false for NaN, so a NaN knob sailed through Validate()
  // and poisoned every downstream latency/loss computation. Every double
  // knob must now be rejected when NaN or infinite.
  const double kBad[] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  for (const double bad : kBad) {
    FaultConfig faults;
    faults.loss_rate = bad;
    EXPECT_FALSE(faults.Validate().ok()) << "loss_rate " << bad;
    faults = FaultConfig();
    faults.jitter = bad;
    EXPECT_FALSE(faults.Validate().ok()) << "jitter " << bad;
    faults = FaultConfig();
    faults.refresh_interval = bad;
    EXPECT_FALSE(faults.Validate().ok()) << "refresh_interval " << bad;
    faults = FaultConfig();
    faults.retry_max = 3;
    faults.retry_timeout = bad;
    EXPECT_FALSE(faults.Validate().ok()) << "retry_timeout " << bad;
    faults = FaultConfig();
    faults.retry_max = 3;
    faults.retry_backoff = bad;
    EXPECT_FALSE(faults.Validate().ok()) << "retry_backoff " << bad;
  }
}

TEST(FaultConfigTest, ValidateRejectsDormantNonFiniteRetryKnobs) {
  // Even with reliability off (retry_max == 0) the retry knobs must be
  // finite: a NaN parked in a dormant knob would otherwise surface only
  // when a later sweep arms retries.
  FaultConfig faults;
  faults.retry_timeout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(faults.Validate().ok());
  faults = FaultConfig();
  faults.retry_backoff = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(faults.Validate().ok());
}

TEST(FaultConfigTest, NeedsAckCoversControlAndPushOnly) {
  EXPECT_TRUE(NeedsAck(MessageType::kPush));
  EXPECT_TRUE(NeedsAck(MessageType::kSubscribe));
  EXPECT_TRUE(NeedsAck(MessageType::kUnsubscribe));
  EXPECT_TRUE(NeedsAck(MessageType::kSubstitute));
  EXPECT_TRUE(NeedsAck(MessageType::kInterestRegister));
  EXPECT_FALSE(NeedsAck(MessageType::kRequest));
  EXPECT_FALSE(NeedsAck(MessageType::kReply));
  EXPECT_FALSE(NeedsAck(MessageType::kAck));
}

TEST(NetFaultsTest, DefaultConfigConsumesNoExtraRandomness) {
  // Same seed, one network with an explicit default config, one untouched:
  // delivery times must match exactly AND the generators must be in the
  // same state afterwards (no hidden draws) — the determinism contract.
  Fixture with_config(3), untouched(3);
  with_config.network_->set_faults(FaultConfig());
  for (int i = 0; i < 50; ++i) {
    with_config.Send(MessageType::kPush, 1, static_cast<NodeId>(2 + i));
    untouched.Send(MessageType::kPush, 1, static_cast<NodeId>(2 + i));
  }
  with_config.engine_.Run();
  untouched.engine_.Run();
  ASSERT_EQ(with_config.log_.times.size(), untouched.log_.times.size());
  for (size_t i = 0; i < with_config.log_.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_config.log_.times[i], untouched.log_.times[i]);
  }
  EXPECT_EQ(with_config.rng_.NextUInt64(), untouched.rng_.NextUInt64());
}

TEST(NetFaultsTest, LossOutcomesAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    Fixture f(seed);
    f.network_->set_faults(LossyConfig(0.4));
    for (int i = 0; i < 200; ++i) {
      f.Send(MessageType::kRequest, 1, static_cast<NodeId>(2 + i));
    }
    f.engine_.Run();
    std::vector<NodeId> reached;
    for (const Message& m : f.log_.delivered) reached.push_back(m.to);
    return reached;
  };
  EXPECT_EQ(run(12), run(12));
  EXPECT_NE(run(12), run(13));  // Different stream, different casualties.
}

TEST(NetFaultsTest, LossRateDropsRoughlyThatFraction) {
  Fixture f(5);
  f.network_->set_faults(LossyConfig(0.25));
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    f.Send(MessageType::kRequest, 1, static_cast<NodeId>(2 + i));
  }
  f.engine_.Run();
  const double delivered = static_cast<double>(f.log_.delivered.size());
  EXPECT_NEAR(delivered / n, 0.75, 0.03);
  EXPECT_EQ(f.recorder_.delivery().total_sent(), static_cast<uint64_t>(n));
  EXPECT_EQ(f.recorder_.delivery().total_delivered() +
                f.recorder_.delivery().total_dropped(),
            static_cast<uint64_t>(n));
  EXPECT_NEAR(f.recorder_.DeliveryRatio(), 0.75, 0.03);
}

TEST(NetFaultsTest, LostMessagesStillChargeTheirHops) {
  Fixture f(5);
  f.network_->set_loss_filter([](const Message&) { return true; });
  f.Send(MessageType::kPush, 1, 2);
  f.engine_.Run();
  EXPECT_TRUE(f.log_.delivered.empty());
  // The packet traveled and died in flight: the paper's cost metric counts
  // the wasted transmission.
  EXPECT_EQ(f.recorder_.hops().push(), 1u);
  EXPECT_EQ(f.recorder_.delivery().total_dropped(), 1u);
}

TEST(NetFaultsTest, JitterDelaysDeliveryDeterministically) {
  Fixture plain(9), jittered(9);
  FaultConfig faults;
  faults.jitter = 5.0;
  jittered.network_->set_faults(faults);
  plain.Send(MessageType::kRequest, 1, 2);
  jittered.Send(MessageType::kRequest, 1, 2);
  plain.engine_.Run();
  jittered.engine_.Run();
  ASSERT_EQ(plain.log_.times.size(), 1u);
  ASSERT_EQ(jittered.log_.times.size(), 1u);
  // Exp draw is the same (same stream position); the uniform jitter addend
  // comes on top.
  EXPECT_GT(jittered.log_.times[0], plain.log_.times[0]);
  EXPECT_LT(jittered.log_.times[0], plain.log_.times[0] + 5.0);
}

TEST(NetFaultsTest, SendTimeDropToDownNodeChargesAllHops) {
  Fixture f(5);
  f.network_->SetNodeDown(2, true);
  Message m;
  m.type = MessageType::kPush;
  m.from = 1;
  m.to = 2;
  f.network_->SendMultiHop(std::move(m), /*extra_hops=*/3);
  f.engine_.Run();
  EXPECT_TRUE(f.log_.delivered.empty());
  EXPECT_EQ(f.recorder_.hops().push(), 4u);
  EXPECT_EQ(f.recorder_.delivery().total_sent(), 1u);
  EXPECT_EQ(f.recorder_.delivery().total_dropped(), 1u);
}

TEST(NetFaultsTest, RetryRecoversFromTransientLoss) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(3));
  int attempts = 0;
  f.network_->set_loss_filter([&attempts](const Message& m) {
    if (m.type != MessageType::kSubscribe) return false;
    return ++attempts == 1;  // Only the first transmission is lost.
  });
  f.Send(MessageType::kSubscribe, 2, 1);
  f.engine_.Run();
  ASSERT_EQ(f.log_.delivered.size(), 1u);
  EXPECT_EQ(f.log_.delivered[0].type, MessageType::kSubscribe);
  const auto& d = f.recorder_.delivery();
  EXPECT_EQ(d.retries_for(metrics::HopClass::kControl), 1u);
  EXPECT_EQ(d.total_giveups(), 0u);
  EXPECT_EQ(f.network_->pending_acks(), 0u);  // Acked and settled.
}

TEST(NetFaultsTest, GivesUpAfterRetryCap) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(2));
  f.network_->set_loss_filter(
      [](const Message& m) { return m.type == MessageType::kSubscribe; });
  f.Send(MessageType::kSubscribe, 2, 1);
  f.engine_.Run();
  EXPECT_TRUE(f.log_.delivered.empty());
  const auto& d = f.recorder_.delivery();
  // Initial transmission + 2 retries, all lost, then the sender gives up.
  EXPECT_EQ(d.total_sent(), 3u);
  EXPECT_EQ(d.total_dropped(), 3u);
  EXPECT_EQ(d.retries_for(metrics::HopClass::kControl), 2u);
  EXPECT_EQ(d.total_giveups(), 1u);
  EXPECT_EQ(f.network_->pending_acks(), 0u);
}

TEST(NetFaultsTest, LostAckCausesDuplicateDelivery) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(2));
  f.network_->set_loss_filter(
      [](const Message& m) { return m.type == MessageType::kAck; });
  f.Send(MessageType::kPush, 1, 2);
  f.engine_.Run();
  // Every transmission arrives, every ack dies: the receiver sees the push
  // once per attempt — at-least-once delivery, so protocols must dedup.
  EXPECT_EQ(f.log_.delivered.size(), 3u);
  EXPECT_EQ(f.recorder_.delivery().total_giveups(), 1u);
}

TEST(NetFaultsTest, RequestsStayBestEffortUnderReliability) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(3));
  f.network_->set_loss_filter(
      [](const Message& m) { return m.type == MessageType::kRequest; });
  f.Send(MessageType::kRequest, 1, 2);
  f.engine_.Run();
  // No ack class for requests: one loss is final, nothing retries.
  EXPECT_TRUE(f.log_.delivered.empty());
  EXPECT_EQ(f.recorder_.delivery().total_sent(), 1u);
  EXPECT_EQ(f.recorder_.delivery().retries_for(metrics::HopClass::kRequest),
            0u);
  EXPECT_EQ(f.network_->pending_acks(), 0u);
}

TEST(NetFaultsTest, RetryReachesDestinationThatCameBackUp) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(3, /*timeout=*/1.0));
  f.network_->SetNodeDown(2, true);
  f.Send(MessageType::kPush, 1, 2);
  // Back up before the first retry timer (t = 1.0) fires.
  dupnet::testing::ScriptedTarget bring_up(
      [&f](uint32_t, uint64_t) { f.network_->SetNodeDown(2, false); });
  f.engine_.ScheduleAfter(0.5, &bring_up, 0);
  f.engine_.Run();
  ASSERT_EQ(f.log_.delivered.size(), 1u);
  const auto& d = f.recorder_.delivery();
  EXPECT_EQ(d.total_dropped(), 1u);  // The send-time drop.
  EXPECT_EQ(d.retries_for(metrics::HopClass::kPush), 1u);
  EXPECT_EQ(d.total_giveups(), 0u);
}

TEST(NetFaultsTest, AcksAreInvisibleToDeliveryCounters) {
  Fixture f(5);
  f.network_->set_faults(ReliableConfig(2));
  f.Send(MessageType::kPush, 1, 2);
  f.engine_.Run();
  ASSERT_EQ(f.log_.delivered.size(), 1u);
  const auto& d = f.recorder_.delivery();
  // One push sent and delivered; the ack adds nothing anywhere.
  EXPECT_EQ(d.total_sent(), 1u);
  EXPECT_EQ(d.total_delivered(), 1u);
  // The ack is free_ride, so no control hops either.
  EXPECT_EQ(f.recorder_.hops().control(), 0u);
}

// ---------------------------------------------------------------------------
// Whole-simulation determinism and repair under loss.
// ---------------------------------------------------------------------------

experiment::ExperimentConfig SmallLossyConfig() {
  experiment::ExperimentConfig config;
  config.num_nodes = 128;
  config.lambda = 2.0;
  config.ttl = 600.0;
  config.push_lead = 30.0;
  config.warmup_time = 600.0;
  config.measure_time = 1800.0;
  config.seed = 11;
  config.faults.loss_rate = 0.05;
  config.faults.jitter = 0.2;
  config.faults.retry_max = 3;
  config.faults.retry_timeout = 2.0;
  config.faults.refresh_interval = 300.0;
  return config;
}

TEST(NetFaultsTest, LossySweepIsBitIdenticalAcrossJobCounts) {
  std::vector<experiment::ExperimentConfig> points;
  for (auto scheme : {experiment::Scheme::kCup, experiment::Scheme::kDup}) {
    experiment::ExperimentConfig config = SmallLossyConfig();
    config.scheme = scheme;
    points.push_back(config);
  }
  auto serial = experiment::RunSweep(points, 2, /*jobs=*/1);
  auto parallel = experiment::RunSweep(points, 2, /*jobs=*/3);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(serial->points.size(), parallel->points.size());
  for (size_t p = 0; p < serial->points.size(); ++p) {
    const auto& a = serial->points[p].runs;
    const auto& b = parallel->points[p].runs;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].queries, b[i].queries);
      EXPECT_DOUBLE_EQ(a[i].avg_latency_hops, b[i].avg_latency_hops);
      EXPECT_DOUBLE_EQ(a[i].avg_cost_hops, b[i].avg_cost_hops);
      EXPECT_DOUBLE_EQ(a[i].delivery_ratio, b[i].delivery_ratio);
      EXPECT_EQ(a[i].delivery.total_dropped(), b[i].delivery.total_dropped());
      EXPECT_EQ(a[i].delivery.total_retries(), b[i].delivery.total_retries());
      EXPECT_EQ(a[i].hops.total(), b[i].hops.total());
    }
  }
}

TEST(NetFaultsTest, LossyRunRecordsLossAndRetries) {
  auto metrics = experiment::SimulationDriver::Run(SmallLossyConfig());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->queries, 0u);
  EXPECT_LT(metrics->delivery_ratio, 1.0);
  EXPECT_GT(metrics->delivery_ratio, 0.8);
  EXPECT_GT(metrics->delivery.total_dropped(), 0u);
  EXPECT_GT(metrics->delivery.total_retries(), 0u);
}

TEST(NetFaultsTest, DupTreeReconvergesAfterLossyRun) {
  experiment::ExperimentConfig config = SmallLossyConfig();
  config.scheme = experiment::Scheme::kDup;
  // Checkpointed auditing makes RunToCompletion finish with the
  // reconvergence sequence (stop the loss, one clean refresh round, prune
  // entries the refresh did not re-announce) and then a forced global
  // audit: the upstream subscription state must be fully consistent again
  // in bounded simulation time.
  config.audit_mode = audit::AuditMode::kCheckpoints;
  experiment::SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  driver.RunToCompletion();
  ASSERT_NE(driver.audit_checker(), nullptr);
  EXPECT_EQ(driver.audit_checker()->total_violations(), 0u)
      << driver.audit_checker()->Summary();
}

}  // namespace
}  // namespace dupnet::net
