#include "multikey/simulation.h"

#include <cstdlib>
#include <string_view>

#include <gtest/gtest.h>

namespace dupnet::multikey {
namespace {

MultiKeyConfig SmallConfig() {
  MultiKeyConfig config;
  config.num_nodes = 128;
  config.num_keys = 8;
  config.lambda = 10.0;
  config.ttl = 600.0;
  config.push_lead = 30.0;
  config.warmup_time = 600.0;
  config.measure_time = 1800.0;
  config.seed = 3;
  return config;
}

TEST(MultiKeyConfigTest, DefaultsValid) {
  EXPECT_TRUE(MultiKeyConfig().Validate().ok());
}

TEST(MultiKeyConfigTest, Rejections) {
  MultiKeyConfig config;
  config.num_nodes = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.num_keys = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.lambda = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.push_lead = config.ttl;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.shards = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.shards = config.num_keys + 1;
  EXPECT_FALSE(config.Validate().ok());
  config = MultiKeyConfig();
  config.faults.loss_rate = 1.5;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MultiKeyConfigTest, ConvertsTheSharedExperimentKeys) {
  const experiment::KeySchema schema{"multikey", MultiKeyConfigKeys(), {}};
  util::ConfigMap args;
  args.Set("nodes", "300");
  args.Set("theta", "1.1");
  args.Set("loss_rate", "0.1");
  args.Set("max_arity", "3");
  args.Set("dwell", "5");
  args.Set("seed", "9");
  experiment::ExperimentConfig shared;
  ASSERT_TRUE(experiment::ApplyKeys(schema, args, &shared).ok());
  MultiKeyConfig config = FromExperimentConfig(shared);
  EXPECT_EQ(config.num_nodes, 300u);
  EXPECT_EQ(config.node_zipf_theta, 1.1);
  EXPECT_EQ(config.faults.loss_rate, 0.1);
  EXPECT_EQ(config.dup.max_arity, 3u);
  EXPECT_EQ(config.adaptive.dwell_updates, 5u);
  EXPECT_EQ(config.seed, 9u);

  config.num_keys = 12;
  config.key_zipf_theta = 0.5;
  const util::JsonValue json = ManifestConfig(config);
  for (std::string_view key : MultiKeyConfigKeys()) {
    EXPECT_NE(json.Find(key), nullptr) << key;
  }
  EXPECT_EQ(json.Find("nodes")->AsDouble(), 300.0);
  EXPECT_EQ(json.Find("theta")->AsDouble(), 1.1);
  EXPECT_EQ(json.Find("keys")->AsDouble(), 12.0);
  EXPECT_EQ(json.Find("key_theta")->AsDouble(), 0.5);
}

TEST(MultiKeyConfigTest, ShardsAliasGoesThroughTheKeyCheck) {
  const experiment::KeySchema schema{"multikey", {}, {kShardsKey}};
  util::ConfigMap args;
  ASSERT_EQ(::setenv("DUP_SHARDS", "3x", 1), 0);
  const util::Status bad = experiment::ResolveEnvAliases(schema, &args);
  ASSERT_EQ(::setenv("DUP_SHARDS", "3", 1), 0);
  const util::Status good = experiment::ResolveEnvAliases(schema, &args);
  ASSERT_EQ(::unsetenv("DUP_SHARDS"), 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("DUP_SHARDS=3x"), std::string::npos);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(args.GetInt("shards", 1), 3);
}

TEST(MultiKeyTest, RunsAndReportsPerKeyStats) {
  auto result = MultiKeySimulation::Run(SmallConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->keys.size(), 8u);
  EXPECT_GT(result->aggregate.queries, 1000u);
  uint64_t per_key_total = 0;
  for (const KeyStats& key : result->keys) {
    EXPECT_NE(key.authority, kInvalidNode);
    per_key_total += key.metrics.queries;
  }
  EXPECT_EQ(per_key_total, result->aggregate.queries);
}

TEST(MultiKeyTest, KeyPopularityIsSkewed) {
  MultiKeyConfig config = SmallConfig();
  config.key_zipf_theta = 1.5;
  auto result = MultiKeySimulation::Run(config);
  ASSERT_TRUE(result.ok());
  // Rank-0 key must receive more queries than the coldest key.
  EXPECT_GT(result->keys.front().metrics.queries,
            2 * result->keys.back().metrics.queries);
}

TEST(MultiKeyTest, UniformKeysWhenThetaZero) {
  MultiKeyConfig config = SmallConfig();
  config.key_zipf_theta = 0.0;
  auto result = MultiKeySimulation::Run(config);
  ASSERT_TRUE(result.ok());
  const double expected = static_cast<double>(result->aggregate.queries) /
                          static_cast<double>(config.num_keys);
  for (const KeyStats& key : result->keys) {
    EXPECT_NEAR(static_cast<double>(key.metrics.queries), expected,
                expected * 0.25)
        << key.key_name;
  }
}

TEST(MultiKeyTest, AuthoritiesSpreadAcrossNodes) {
  MultiKeyConfig config = SmallConfig();
  config.num_keys = 32;
  auto result = MultiKeySimulation::Run(config);
  ASSERT_TRUE(result.ok());
  // Hashing 32 keys over 128 nodes: authorities should be well spread.
  EXPECT_GT(result->distinct_authorities, 16u);
  EXPECT_LE(result->max_keys_per_authority, 5u);
}

TEST(MultiKeyTest, AllSchemesRun) {
  for (experiment::Scheme scheme :
       {experiment::Scheme::kPcx, experiment::Scheme::kCup,
        experiment::Scheme::kDup}) {
    MultiKeyConfig config = SmallConfig();
    config.scheme = scheme;
    auto result = MultiKeySimulation::Run(config);
    ASSERT_TRUE(result.ok()) << experiment::SchemeToString(scheme);
    EXPECT_GT(result->aggregate.queries, 0u);
  }
}

TEST(MultiKeyTest, DupBeatsPcxInAggregate) {
  MultiKeyConfig pcx_config = SmallConfig();
  pcx_config.scheme = experiment::Scheme::kPcx;
  MultiKeyConfig dup_config = SmallConfig();
  dup_config.scheme = experiment::Scheme::kDup;
  auto pcx = MultiKeySimulation::Run(pcx_config);
  auto dup = MultiKeySimulation::Run(dup_config);
  ASSERT_TRUE(pcx.ok());
  ASSERT_TRUE(dup.ok());
  EXPECT_LT(dup->aggregate.avg_latency_hops, pcx->aggregate.avg_latency_hops);
  EXPECT_LT(dup->aggregate.avg_cost_hops, pcx->aggregate.avg_cost_hops);
}

TEST(MultiKeyTest, DeterministicForSeed) {
  auto a = MultiKeySimulation::Run(SmallConfig());
  auto b = MultiKeySimulation::Run(SmallConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->aggregate.queries, b->aggregate.queries);
  EXPECT_DOUBLE_EQ(a->aggregate.avg_cost_hops, b->aggregate.avg_cost_hops);
}

TEST(MultiKeyTest, HorizonBoundaryPublishIsExcluded) {
  // period = ttl - push_lead = 500; with a 1000s horizon, publishes land at
  // t = 0 and t = 500. The next one falls exactly ON the horizon and must
  // not fire: scheduling is strictly-before-horizon on both the publish and
  // the query path (the old <=/>= mismatch scheduled it, and RunUntil
  // processes events at exactly the end time).
  MultiKeyConfig config;
  config.num_nodes = 16;
  config.num_keys = 1;
  config.lambda = 1.0;
  config.ttl = 600.0;
  config.push_lead = 100.0;
  config.warmup_time = 0.0;
  config.measure_time = 1000.0;
  config.seed = 7;
  auto result = MultiKeySimulation::Run(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->keys[0].publishes, 2u);
}

// --- Shard determinism: the PR's load-bearing invariant. -------------------
//
// Each key's event stream is derived only from (seed, key index): its own
// RNG, arrival process, node selector, network and protocol. Shards merely
// group keys onto engines, so ANY shard count must produce bit-identical
// merged metrics. These tests pin shards ∈ {1, 2, 4} across all schemes and
// lossless/lossy networks.

void ExpectBitIdentical(const MultiKeyResult& a, const MultiKeyResult& b) {
  const metrics::RunMetrics& ma = a.aggregate;
  const metrics::RunMetrics& mb = b.aggregate;
  EXPECT_EQ(ma.queries, mb.queries);
  EXPECT_EQ(ma.queries_issued, mb.queries_issued);
  EXPECT_EQ(ma.local_hits, mb.local_hits);
  EXPECT_EQ(ma.stale_serves, mb.stale_serves);
  // EXPECT_EQ on doubles is exact equality — bit-identity, not tolerance.
  EXPECT_EQ(ma.avg_latency_hops, mb.avg_latency_hops);
  EXPECT_EQ(ma.avg_cost_hops, mb.avg_cost_hops);
  EXPECT_EQ(ma.local_hit_rate, mb.local_hit_rate);
  EXPECT_EQ(ma.stale_rate, mb.stale_rate);
  EXPECT_EQ(ma.delivery_ratio, mb.delivery_ratio);
  for (int c = 0; c < metrics::kNumHopClasses; ++c) {
    EXPECT_EQ(ma.hops.counts[c], mb.hops.counts[c]);
    EXPECT_EQ(ma.delivery.sent[c], mb.delivery.sent[c]);
    EXPECT_EQ(ma.delivery.delivered[c], mb.delivery.delivered[c]);
    EXPECT_EQ(ma.delivery.dropped[c], mb.delivery.dropped[c]);
    EXPECT_EQ(ma.delivery.retries[c], mb.delivery.retries[c]);
    EXPECT_EQ(ma.delivery.giveups[c], mb.delivery.giveups[c]);
  }
  EXPECT_EQ(ma.latency_p50, mb.latency_p50);
  EXPECT_EQ(ma.latency_p95, mb.latency_p95);
  EXPECT_EQ(ma.latency_p99, mb.latency_p99);
  EXPECT_EQ(ma.latency_max, mb.latency_max);
  ASSERT_EQ(ma.latency_hist.max_tracked(), mb.latency_hist.max_tracked());
  EXPECT_EQ(ma.latency_hist.count(), mb.latency_hist.count());
  EXPECT_EQ(ma.latency_hist.overflow_count(), mb.latency_hist.overflow_count());
  for (uint64_t v = 0; v <= ma.latency_hist.max_tracked(); ++v) {
    EXPECT_EQ(ma.latency_hist.CountAt(v), mb.latency_hist.CountAt(v))
        << "latency bucket " << v;
  }
  EXPECT_EQ(ma.latency_stats.count(), mb.latency_stats.count());
  if (ma.latency_stats.count() > 0) {
    EXPECT_EQ(ma.latency_stats.Mean(), mb.latency_stats.Mean());
    EXPECT_EQ(ma.latency_stats.Min(), mb.latency_stats.Min());
    EXPECT_EQ(ma.latency_stats.Max(), mb.latency_stats.Max());
  }
  // Per-key streams, not just the fold: every key saw the same history.
  ASSERT_EQ(a.keys.size(), b.keys.size());
  for (size_t k = 0; k < a.keys.size(); ++k) {
    EXPECT_EQ(a.keys[k].authority, b.keys[k].authority) << "key " << k;
    EXPECT_EQ(a.keys[k].publishes, b.keys[k].publishes) << "key " << k;
    EXPECT_EQ(a.keys[k].metrics.queries, b.keys[k].metrics.queries)
        << "key " << k;
    EXPECT_EQ(a.keys[k].metrics.avg_latency_hops,
              b.keys[k].metrics.avg_latency_hops)
        << "key " << k;
    EXPECT_EQ(a.keys[k].metrics.hops.total(), b.keys[k].metrics.hops.total())
        << "key " << k;
  }
  // The union of per-shard engines processes exactly the same event set.
  EXPECT_EQ(a.events_processed, b.events_processed);
}

class MultiKeyShardTest
    : public ::testing::TestWithParam<experiment::Scheme> {};

TEST_P(MultiKeyShardTest, ShardCountIsMetricsInvariantLossless) {
  MultiKeyConfig config = SmallConfig();
  config.scheme = GetParam();
  auto reference = MultiKeySimulation::Run(config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->shards, 1u);
  EXPECT_GT(reference->aggregate.queries, 0u);
  for (size_t shards : {2u, 4u}) {
    MultiKeyConfig sharded = config;
    sharded.shards = shards;
    auto result = MultiKeySimulation::Run(sharded);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->shards, shards);
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ExpectBitIdentical(*reference, *result);
  }
}

TEST_P(MultiKeyShardTest, ShardCountIsMetricsInvariantLossy) {
  MultiKeyConfig config = SmallConfig();
  config.scheme = GetParam();
  config.faults.loss_rate = 0.05;
  config.faults.jitter = 0.02;
  config.faults.retry_max = 2;
  config.faults.refresh_interval = 900.0;  // Ticks at 900 s and 1800 s.
  auto reference = MultiKeySimulation::Run(config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference->aggregate.delivery.total_dropped(), 0u);
  // The refresh ticks run: the same run without them processes fewer
  // events and, for the soft-state schemes, sends fewer control hops.
  MultiKeyConfig no_refresh = config;
  no_refresh.faults.refresh_interval = 0.0;
  auto quiet = MultiKeySimulation::Run(no_refresh);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_GT(reference->events_processed, quiet->events_processed);
  if (config.scheme == experiment::Scheme::kPcx) {
    // PCX keeps no soft state: its refresh tick sends nothing.
    EXPECT_EQ(reference->aggregate.hops.control(),
              quiet->aggregate.hops.control());
  } else {
    EXPECT_GT(reference->aggregate.hops.control(),
              quiet->aggregate.hops.control());
  }
  for (size_t shards : {2u, 4u}) {
    MultiKeyConfig sharded = config;
    sharded.shards = shards;
    auto result = MultiKeySimulation::Run(sharded);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ExpectBitIdentical(*reference, *result);
  }
}

TEST_P(MultiKeyShardTest, MultiThreadedShardsMatchSingleThreaded) {
  // Same shard count, different worker counts: completion order must not
  // leak into any metric (shards are shared-nothing at runtime).
  MultiKeyConfig serial = SmallConfig();
  serial.scheme = GetParam();
  serial.shards = 4;
  serial.jobs = 1;
  MultiKeyConfig threaded = serial;
  threaded.jobs = 4;
  auto a = MultiKeySimulation::Run(serial);
  auto b = MultiKeySimulation::Run(threaded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectBitIdentical(*a, *b);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MultiKeyShardTest,
                         ::testing::Values(experiment::Scheme::kPcx,
                                           experiment::Scheme::kCup,
                                           experiment::Scheme::kDup),
                         [](const auto& info) {
                           return std::string(
                               experiment::SchemeToString(info.param));
                         });

// --- Goldens: full-precision outputs of two small runs. --------------------
//
// The shard tests above only compare multikey runs with each other. These
// rows pin a lossless DUP run and a lossy adaptive run with retries and
// soft-state refresh (K = 8, SmallConfig) to their absolute outputs: the
// merged RunMetrics, every key's publish count and migration count, and the
// events processed. Any change to how a key's events are scheduled or fired
// shows up here as a bit-level diff. If a change legitimately alters the
// simulation, regenerate a row with a %.17g print of every field and say
// why in the commit message.

struct MultiKeyGoldenRow {
  const char* name;
  uint64_t queries, queries_issued;
  double avg_latency_hops, avg_cost_hops, local_hit_rate, stale_rate;
  uint64_t hops_request, hops_reply, hops_push, hops_control;
  double delivery_ratio;
  uint64_t sent, delivered, dropped, retries, giveups;
  uint64_t p50, p95, p99, max;
  uint64_t publishes[8];
  size_t migrations[8];
  uint64_t events_processed;
};

MultiKeyConfig GoldenConfig(const MultiKeyGoldenRow& row) {
  MultiKeyConfig config = SmallConfig();
  if (std::string_view(row.name) == "adaptive/lossy") {
    config.scheme = experiment::Scheme::kAdaptive;
    config.faults.loss_rate = 0.05;
    config.faults.retry_max = 4;
    config.faults.refresh_interval = 600.0;
  }
  return config;
}

const MultiKeyGoldenRow kMultiKeyGolden[] = {
    {"dup/lossless", 18069u, 18069u, 0.10952460014389286,
     0.33770546239415572, 0.91084177320272286, 0.016935082184957661, 1979u,
     1979u, 1260u, 884u, 1.0, 6102u, 6102u, 0u, 0u, 0u, 0u, 1u, 2u, 4u,
     {5u, 5u, 4u, 4u, 4u, 4u, 4u, 4u}, {0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u},
     34079u},
    {"adaptive/lossy", 17627u, 18025u, 0.21943609235831396,
     0.71055766721506775, 0.87950303511658257, 0.10171895387757418, 4743u,
     4217u, 1183u, 2382u, 0.95592814371257484, 12525u, 11973u, 553u, 328u,
     0u, 0u, 1u, 4u, 7u, {5u, 5u, 4u, 4u, 4u, 4u, 4u, 4u},
     {1u, 1u, 1u, 1u, 1u, 1u, 1u, 1u}, 46749u},
};

TEST(MultiKeyGoldenTest, MatchesGoldenRows) {
  for (const MultiKeyGoldenRow& row : kMultiKeyGolden) {
    SCOPED_TRACE(row.name);
    for (size_t shards : {1u, 2u}) {
      MultiKeyConfig config = GoldenConfig(row);
      config.shards = shards;
      auto result = MultiKeySimulation::Run(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      SCOPED_TRACE(::testing::Message() << "shards=" << shards);
      const metrics::RunMetrics& m = result->aggregate;
      // EXPECT_EQ on doubles on purpose: the contract is bit-identity.
      EXPECT_EQ(m.queries, row.queries);
      EXPECT_EQ(m.queries_issued, row.queries_issued);
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
      ASSERT_EQ(result->keys.size(), std::size(row.publishes));
      for (size_t k = 0; k < result->keys.size(); ++k) {
        EXPECT_EQ(result->keys[k].publishes, row.publishes[k]) << "key " << k;
        EXPECT_EQ(result->keys[k].migrations.size(), row.migrations[k])
            << "key " << k;
      }
      EXPECT_EQ(result->events_processed, row.events_processed);
    }
  }
}

}  // namespace
}  // namespace dupnet::multikey
