// Event-engine determinism regression. The golden values below are the
// full-precision RunMetrics produced by the pre-pooled (closure-per-event)
// engine for PCX/CUP/DUP on the small reference config, lossless and lossy.
// The pooled typed event engine must reproduce every one of them
// bit-for-bit — the (time, seq) execution order and the RNG draw order are
// the simulator's determinism contract — and must keep doing so at any
// parallel-runner job count.
//
// If a change legitimately alters the simulation (a model fix, a new RNG
// draw), regenerate this table with a %.17g print of the twelve metrics per
// row and say so in the commit message; any unexplained diff is a bug.
// The cup/lossy and dup/lossy rows were regenerated once that way: the
// driver now schedules nothing at t == warmup + measure, so the refresh
// round on their 2400 s horizon (a multiple of the 300 s interval) no
// longer counts messages that could not be delivered inside the window.

#include <gtest/gtest.h>

#include <vector>

#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/parallel_runner.h"
#include "metrics/summary.h"

namespace dupnet::experiment {
namespace {

struct GoldenRow {
  Scheme scheme;
  bool lossy;
  uint64_t queries;
  double avg_latency_hops;
  double avg_cost_hops;
  double local_hit_rate;
  double stale_rate;
  uint64_t hops_request, hops_reply, hops_push, hops_control;
  double delivery_ratio;
  uint64_t sent, delivered, dropped, retries, giveups;
  uint64_t p50, p95, p99, max;
};

// Captured from the pre-refactor engine (seed 11, 128 nodes, lambda 2,
// ttl 600, push_lead 30, warmup 600, measure 1800; lossy adds loss 5%,
// jitter 0.02, retry 3x1.0s backoff 2.0, refresh 300s).
const GoldenRow kGolden[] = {
    {Scheme::kPcx, false, 3702u, 0.40491626148028059, 0.80983252296056185,
     0.86088600756347922, 0.35332252836304701, 1499u, 1499u, 0u, 0u, 1.0,
     2998u, 2998u, 0u, 0u, 0u, 0u, 3u, 7u, 7u},
    {Scheme::kCup, false, 3624u, 0.18267108167770396, 0.41004415011037526,
     0.94177704194260481, 0.035596026490066227, 664u, 664u, 124u, 34u,
     0.99932705248990583, 1486u, 1485u, 0u, 0u, 0u, 0u, 1u, 6u, 7u},
    {Scheme::kDup, false, 3691u, 0.042535898130587932, 0.19290165266865347,
     0.96071525331888374, 0.0097534543484150641, 157u, 157u, 260u, 138u, 1.0,
     712u, 712u, 0u, 0u, 0u, 0u, 0u, 1u, 2u},
    {Scheme::kPcx, true, 3422u, 0.3673290473407364, 0.99824663939216829,
     0.86353009935710112, 0.35184102863822325, 1924u, 1492u, 0u, 0u,
     0.9473067915690867, 3416u, 3236u, 180u, 0u, 0u, 0u, 3u, 7u, 7u},
    // cup/lossy and dup/lossy: recaptured when the driver stopped
    // scheduling events at t == warmup + measure. The refresh round that
    // used to fire on the 2400 s horizon sent 105 (CUP) and 76 (DUP)
    // control messages none of which could be delivered inside the window.
    {Scheme::kCup, true, 3661u, 0.015842665938268278, 0.30483474460529908,
     0.98579623053810439, 0.0051898388418464897, 64u, 62u, 357u, 633u,
     0.94713261648745517, 1116u, 1057u, 59u, 95u, 0u, 0u, 0u, 1u, 2u},
    {Scheme::kDup, true, 3564u, 0.039842873176206543, 0.38804713804713803,
     0.96268237934904599, 0.011223344556677889, 165u, 153u, 285u, 780u,
     0.94504699927693425, 1383u, 1307u, 76u, 107u, 1u, 0u, 0u, 1u, 2u},
    // Adaptive rows: captured before the adaptive protocol's CUP regime
    // moved onto CupProtocol's interest code, on the three-act migration
    // scenario in ConfigFor (PCX -> CUP -> DUP -> PCX).
    {Scheme::kAdaptive, false, 5045u, 0.22438057482656129,
     0.60891972249752235, 0.91833498513379586, 0.26184340931615463, 1132u,
     1132u, 416u, 392u, 1.0, 3072u, 3072u, 0u, 0u, 0u, 0u, 1u, 6u, 7u},
    {Scheme::kAdaptive, true, 4947u, 0.14028704265211253,
     0.60582171012734987, 0.93875075803517283, 0.050131392763290886, 891u,
     771u, 464u, 871u, 0.95195195195195192, 2997u, 2853u, 144u, 138u, 0u,
     0u, 1u, 4u, 7u},
};

// Length of each adaptive row's migration log (lossless, lossy).
constexpr size_t kAdaptiveMigrations[] = {3, 3};

ExperimentConfig ConfigFor(const GoldenRow& row) {
  ExperimentConfig config;
  config.scheme = row.scheme;
  config.num_nodes = 128;
  config.lambda = 2.0;
  config.ttl = 600.0;
  config.push_lead = 30.0;
  config.warmup_time = 600.0;
  config.measure_time = 1800.0;
  config.seed = 11;
  if (row.scheme == Scheme::kAdaptive) {
    // A warm trickle (CUP territory), a flash crowd with a drifting hot set
    // (DUP), then near-silence (back to PCX) — adaptive_test.cc's
    // migration scenario.
    config.lambda = 0.5;
    config.ttl = 300.0;
    config.measure_time = 2400.0;
    config.dup.max_arity = 4;
    config.adaptive.demand_window = 600.0;
    config.adaptive.cup_enter_per_update = 30.0;
    config.adaptive.dup_enter_per_update = 400.0;
    config.adaptive.query_saturation = 8192;
    config.phases = {{1200.0, 16.0, 16}, {1800.0, 0.01, 0}};
  }
  if (row.lossy) {
    config.faults.loss_rate = 0.05;
    config.faults.jitter = 0.02;
    config.faults.retry_max = 3;
    config.faults.retry_timeout = 1.0;
    config.faults.retry_backoff = 2.0;
    config.faults.refresh_interval = 300.0;
  }
  return config;
}

// EXPECT_EQ on doubles on purpose: the contract is bit-identity, not
// closeness (the %.17g literals round-trip exactly).
void ExpectMatchesGolden(const metrics::RunMetrics& m, const GoldenRow& row,
                         const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(m.queries, row.queries);
  EXPECT_EQ(m.avg_latency_hops, row.avg_latency_hops);
  EXPECT_EQ(m.avg_cost_hops, row.avg_cost_hops);
  EXPECT_EQ(m.local_hit_rate, row.local_hit_rate);
  EXPECT_EQ(m.stale_rate, row.stale_rate);
  EXPECT_EQ(m.hops.request(), row.hops_request);
  EXPECT_EQ(m.hops.reply(), row.hops_reply);
  EXPECT_EQ(m.hops.push(), row.hops_push);
  EXPECT_EQ(m.hops.control(), row.hops_control);
  EXPECT_EQ(m.delivery_ratio, row.delivery_ratio);
  EXPECT_EQ(m.delivery.total_sent(), row.sent);
  EXPECT_EQ(m.delivery.total_delivered(), row.delivered);
  EXPECT_EQ(m.delivery.total_dropped(), row.dropped);
  EXPECT_EQ(m.delivery.total_retries(), row.retries);
  EXPECT_EQ(m.delivery.total_giveups(), row.giveups);
  EXPECT_EQ(m.latency_p50, row.p50);
  EXPECT_EQ(m.latency_p95, row.p95);
  EXPECT_EQ(m.latency_p99, row.p99);
  EXPECT_EQ(m.latency_max, row.max);
}

const char* RowName(const GoldenRow& row) {
  switch (row.scheme) {
    case Scheme::kPcx:
      return row.lossy ? "pcx/lossy" : "pcx/lossless";
    case Scheme::kCup:
      return row.lossy ? "cup/lossy" : "cup/lossless";
    case Scheme::kDup:
      return row.lossy ? "dup/lossy" : "dup/lossless";
    case Scheme::kAdaptive:
      return row.lossy ? "adaptive/lossy" : "adaptive/lossless";
  }
  return "?";
}

TEST(SimDeterminismTest, MatchesPrePoolingEngineGoldenValues) {
  for (const GoldenRow& row : kGolden) {
    auto metrics = SimulationDriver::Run(ConfigFor(row));
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    ExpectMatchesGolden(*metrics, row, RowName(row));
  }
}

// The calendar scheduler (the default, exercised by every other test here)
// and the reference binary heap must produce the same execution order —
// the goldens hold bit-for-bit under BOTH scheduler settings, serially and
// in the parallel runner (see also sim_scheduler_equivalence_test.cc for
// the queue-level property tests).
TEST(SimDeterminismTest, GoldenValuesHoldUnderBothSchedulers) {
  for (sim::SchedulerKind kind :
       {sim::SchedulerKind::kHeap, sim::SchedulerKind::kCalendar}) {
    std::vector<ExperimentConfig> batch;
    for (const GoldenRow& row : kGolden) {
      ExperimentConfig config = ConfigFor(row);
      config.scheduler = kind;
      batch.push_back(config);
    }
    for (size_t jobs : {1u, 4u}) {
      ParallelRunner runner(jobs);
      const auto outcomes = runner.RunBatch(batch);
      ASSERT_EQ(outcomes.size(), std::size(kGolden));
      for (size_t i = 0; i < outcomes.size(); ++i) {
        SCOPED_TRACE("scheduler=" +
                     std::string(SchedulerToString(batch[i].scheduler)) +
                     " jobs=" + std::to_string(jobs));
        ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
        ExpectMatchesGolden(outcomes[i].metrics, kGolden[i],
                            RowName(kGolden[i]));
      }
    }
  }
}

TEST(SimDeterminismTest, GoldenValuesHoldAtAnyJobCount) {
  std::vector<ExperimentConfig> batch;
  for (const GoldenRow& row : kGolden) batch.push_back(ConfigFor(row));
  for (size_t jobs : {1u, 2u, 5u}) {
    ParallelRunner runner(jobs);
    const auto outcomes = runner.RunBatch(batch);
    ASSERT_EQ(outcomes.size(), std::size(kGolden));
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      ExpectMatchesGolden(outcomes[i].metrics, kGolden[i], RowName(kGolden[i]));
    }
  }
}

// The invariant auditor must be provably metrics-neutral: a checkpointed
// audit draws no RNG samples, sends no messages and records no hops, so
// audit_mode=checkpoints must reproduce the audit-off goldens above
// bit-for-bit — serially and at any parallel-runner job count.
TEST(SimDeterminismTest, CheckpointAuditingIsBitIdenticalToAuditOff) {
  std::vector<ExperimentConfig> batch;
  for (const GoldenRow& row : kGolden) {
    ExperimentConfig config = ConfigFor(row);
    config.audit_mode = audit::AuditMode::kCheckpoints;
    batch.push_back(config);
  }
  for (size_t jobs : {1u, 4u}) {
    ParallelRunner runner(jobs);
    const auto outcomes = runner.RunBatch(batch);
    ASSERT_EQ(outcomes.size(), std::size(kGolden));
    for (size_t i = 0; i < outcomes.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs));
      // A status failure here is an invariant violation: audit-clean runs
      // are part of the golden contract.
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      ExpectMatchesGolden(outcomes[i].metrics, kGolden[i],
                          RowName(kGolden[i]));
    }
  }
}

// The adaptive rows' migration logs are part of the golden contract too:
// the same scenario must migrate at the same ticks, and it must visit all
// three regimes so the golden covers every handover.
TEST(SimDeterminismTest, AdaptiveMigrationLogMatchesGolden) {
  size_t adaptive_row = 0;
  for (const GoldenRow& row : kGolden) {
    if (row.scheme != Scheme::kAdaptive) continue;
    SCOPED_TRACE(RowName(row));
    SimulationDriver driver(ConfigFor(row));
    ASSERT_TRUE(driver.Init().ok());
    driver.RunToCompletion();
    ExpectMatchesGolden(driver.Collect(), row, RowName(row));
    const auto& migrations =
        driver.adaptive_protocol()->controller().migrations();
    EXPECT_EQ(migrations.size(), kAdaptiveMigrations[adaptive_row++]);
    bool visited[3] = {false, false, false};
    for (const auto& m : migrations) {
      visited[static_cast<int>(m.to)] = true;
    }
    EXPECT_TRUE(visited[0] && visited[1] && visited[2]);
  }
  EXPECT_EQ(adaptive_row, std::size(kAdaptiveMigrations));
}

TEST(SimDeterminismTest, RerunningIsBitIdentical) {
  // Same config twice in one process: no hidden global state (static RNGs,
  // pool carry-over) may leak between runs.
  const ExperimentConfig config = ConfigFor(kGolden[2]);  // dup/lossless
  auto first = SimulationDriver::Run(config);
  auto second = SimulationDriver::Run(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectMatchesGolden(*second, kGolden[2], "second run");
  EXPECT_EQ(first->queries, second->queries);
  EXPECT_EQ(first->avg_cost_hops, second->avg_cost_hops);
}

}  // namespace
}  // namespace dupnet::experiment
