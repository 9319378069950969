// Ablation (ours): the single index the paper simulates, scaled out to a
// realistic many-keys deployment over one Chord overlay. Measures how the
// aggregate DUP-vs-PCX advantage carries over and how evenly the
// authority role (and thus propagation load) spreads.
//
// A shard-scaling section rides along: the keys=64 DUP run is repeated
// with the key set partitioned over 1/2/4/8 engine shards driven on a
// worker pool (docs/scaling.md "Sharded runs"), recording events/sec per
// shard count. Merged metrics are bit-identical across shard counts — the
// bench hard-asserts it against the shards=1 reference — so the only thing
// sharding changes is wall-clock. DUP_SHARDS overrides the shard count of
// the main table's runs.
//
// The JSON record lands in results/ablation_multikey.json (override with
// DUP_MULTIKEY_JSON); the committed baseline in results/baseline/ makes it
// part of the `reproduce.sh --check-against` benchdiff gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "metrics/run_manifest.h"
#include "multikey/simulation.h"
#include "util/check.h"
#include "util/json.h"
#include "util/str.h"

namespace {

using namespace dupnet;

multikey::MultiKeyConfig BaseConfig(const bench::BenchSettings& settings,
                                    size_t keys) {
  multikey::MultiKeyConfig config;
  config.num_nodes = 1024;
  config.num_keys = keys;
  config.lambda = 20.0;
  config.warmup_time = settings.warmup_time;
  config.measure_time = settings.measure_time;
  config.jobs = settings.jobs;
  return config;
}

struct ShardPoint {
  size_t shards = 0;
  uint64_t events = 0;
  double wall_seconds = 0.0;
  uint64_t queries = 0;
  double avg_cost_hops = 0.0;
  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

}  // namespace

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Ablation — many keys over one overlay", settings);

  const std::vector<size_t> key_counts = {1, 4, 16, 64};
  experiment::TableReport table(
      "1024 nodes, total lambda = 20 q/s across all keys",
      {"keys", "scheme", "latency", "cost", "authorities",
       "max keys/authority"});
  util::JsonValue ablation = util::JsonValue::MakeArray();
  double total_wall = 0.0;
  for (size_t keys : key_counts) {
    for (experiment::Scheme scheme :
         {experiment::Scheme::kPcx, experiment::Scheme::kDup}) {
      multikey::MultiKeyConfig config = BaseConfig(settings, keys);
      config.scheme = scheme;
      // A key cannot span shards, so small key counts clamp the shard knob.
      config.shards = std::min(settings.shards, keys);
      const auto start = std::chrono::steady_clock::now();
      auto result = multikey::MultiKeySimulation::Run(config);
      DUP_CHECK(result.ok()) << result.status().ToString();
      total_wall +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      table.AddRow(
          {util::StrFormat("%zu", keys),
           std::string(experiment::SchemeToString(scheme)),
           util::StrFormat("%.3f", result->aggregate.avg_latency_hops),
           util::StrFormat("%.3f", result->aggregate.avg_cost_hops),
           util::StrFormat("%zu", result->distinct_authorities),
           util::StrFormat("%zu", result->max_keys_per_authority)});
      util::JsonValue entry = util::JsonValue::MakeObject();
      entry.Set("keys", static_cast<uint64_t>(keys));
      entry.Set("scheme",
                std::string(experiment::SchemeToString(scheme)));
      entry.Set("queries", result->aggregate.queries);
      entry.Set("avg_latency_hops", result->aggregate.avg_latency_hops);
      entry.Set("avg_cost_hops", result->aggregate.avg_cost_hops);
      entry.Set("distinct_authorities",
                static_cast<uint64_t>(result->distinct_authorities));
      entry.Set("max_keys_per_authority",
                static_cast<uint64_t>(result->max_keys_per_authority));
      ablation.Append(std::move(entry));
    }
    table.AddSeparator();
  }
  table.Print();
  MaybeWriteCsv(table, "ablation_multikey");

  // ------------------------------------------------------------------
  // Shard scaling: keys=64 DUP, shards 1/2/4/8 on the worker pool. The
  // merged metrics must match the shards=1 reference bit-for-bit; only
  // events/sec moves.
  // ------------------------------------------------------------------
  const size_t scaling_keys = 64;
  std::printf("\nshard scaling (%zu keys, dup, jobs=%zu):\n", scaling_keys,
              settings.effective_jobs());
  std::vector<ShardPoint> shard_points;
  multikey::MultiKeyResult reference;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    multikey::MultiKeyConfig config = BaseConfig(settings, scaling_keys);
    config.scheme = experiment::Scheme::kDup;
    config.shards = shards;
    const auto start = std::chrono::steady_clock::now();
    auto result = multikey::MultiKeySimulation::Run(config);
    DUP_CHECK(result.ok()) << result.status().ToString();
    ShardPoint point;
    point.shards = shards;
    point.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    total_wall += point.wall_seconds;
    point.events = result->events_processed;
    point.queries = result->aggregate.queries;
    point.avg_cost_hops = result->aggregate.avg_cost_hops;
    if (shards == 1) {
      reference = *result;
    } else {
      // The determinism contract, enforced at bench time: sharding must
      // not move a single metric.
      DUP_CHECK_EQ(result->aggregate.queries, reference.aggregate.queries);
      DUP_CHECK_EQ(result->aggregate.hops.total(),
                   reference.aggregate.hops.total());
      DUP_CHECK(result->aggregate.avg_cost_hops ==
                reference.aggregate.avg_cost_hops)
          << "shards=" << shards << " changed avg_cost_hops";
      DUP_CHECK_EQ(result->events_processed, reference.events_processed);
    }
    std::printf("  shards=%zu: %8llu events in %6.3fs = %8.3gM events/s\n",
                shards, static_cast<unsigned long long>(point.events),
                point.wall_seconds, point.events_per_second() / 1e6);
    shard_points.push_back(point);
  }

  metrics::RunManifest manifest =
      metrics::RunManifest::Create("bench_ablation_multikey",
                                   "ablation_multikey");
  {
    const multikey::MultiKeyConfig config =
        BaseConfig(settings, scaling_keys);
    manifest.seed = config.seed;
    manifest.jobs = settings.effective_jobs();
    manifest.shards = settings.shards;
    manifest.wall_seconds = total_wall;
    manifest.config = multikey::ManifestConfig(config);
    manifest.config.Set("bench_mode", settings.full ? "full" : "quick");
  }

  util::JsonValue shard_sweep = util::JsonValue::MakeArray();
  for (const ShardPoint& point : shard_points) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("shards", static_cast<uint64_t>(point.shards));
    entry.Set("events", point.events);
    entry.Set("wall_seconds", point.wall_seconds);
    entry.Set("events_per_second", point.events_per_second());
    entry.Set("queries", point.queries);
    entry.Set("avg_cost_hops", point.avg_cost_hops);
    shard_sweep.Append(std::move(entry));
  }

  util::JsonValue doc = util::JsonValue::MakeObject();
  doc.Set("manifest", manifest.ToJson());
  doc.Set("exhibit", "ablation_multikey");
  doc.Set("ablation", std::move(ablation));
  doc.Set("shard_scaling", std::move(shard_sweep));
  WriteJsonArtifact(doc, "results/ablation_multikey.json",
                    "DUP_MULTIKEY_JSON");

  PrintExpectation(
      "(not in the paper) DUP's advantage persists in aggregate as traffic "
      "spreads over more keys (per-key rates fall, so both schemes' "
      "latencies rise, PCX faster); DHT hashing spreads the authority role "
      "across distinct nodes, so no node carries more than a few keys' "
      "propagation trees; shard counts only move events/sec, never a "
      "metric.");
  return 0;
}
