#include "multikey/simulation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "chord/tree_builder.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "experiment/parallel_runner.h"
#include "util/check.h"
#include "util/str.h"

namespace dupnet::multikey {

using util::Result;
using util::Status;

namespace {

/// The one list of fields a multikey run shares with ExperimentConfig
/// (MultiKeyConfigKeys() names their keys). `fn(experiment_field,
/// multikey_field)` runs per pair, so the list converts either way.
template <typename E, typename M, typename Fn>
void ForEachSharedField(E& e, M& m, Fn fn) {
  fn(e.scheme, m.scheme);
  fn(e.num_nodes, m.num_nodes);
  fn(e.lambda, m.lambda);
  fn(e.zipf_theta, m.node_zipf_theta);
  fn(e.threshold_c, m.threshold_c);
  fn(e.ttl, m.ttl);
  fn(e.push_lead, m.push_lead);
  fn(e.hop_latency_mean, m.hop_latency_mean);
  fn(e.warmup_time, m.warmup_time);
  fn(e.measure_time, m.measure_time);
  fn(e.seed, m.seed);
  fn(e.dup, m.dup);
  fn(e.adaptive, m.adaptive);
  fn(e.faults, m.faults);
}

experiment::ExperimentConfig SharedFields(const MultiKeyConfig& config) {
  experiment::ExperimentConfig shared;
  ForEachSharedField(shared, config,
                     [](auto& to, const auto& from) { to = from; });
  return shared;
}

}  // namespace

const std::vector<std::string_view>& MultiKeyConfigKeys() {
  static const std::vector<std::string_view> keys = {
      "scheme", "nodes", "lambda", "theta", "c", "ttl", "lead", "hoplat",
      "warmup", "measure", "seed",
      // dup
      "shortcut", "piggyback", "max_arity",
      // adaptive
      "demand_window", "cup_enter", "dup_enter", "exit_fraction", "dwell",
      // faults
      "loss_rate", "jitter", "retry_max", "retry_timeout", "retry_backoff",
      "refresh_interval"};
  return keys;
}

MultiKeyConfig FromExperimentConfig(
    const experiment::ExperimentConfig& config) {
  MultiKeyConfig out;
  ForEachSharedField(config, out,
                     [](const auto& from, auto& to) { to = from; });
  return out;
}

util::JsonValue ManifestConfig(const MultiKeyConfig& config) {
  util::JsonValue json =
      experiment::ConfigToJson(SharedFields(config), MultiKeyConfigKeys());
  json.Set("keys", static_cast<uint64_t>(config.num_keys));
  json.Set("key_theta", config.key_zipf_theta);
  return json;
}

Status MultiKeyConfig::Validate() const {
  // The shared fields obey the single-key rules.
  DUP_RETURN_IF_ERROR(SharedFields(*this).Validate());
  if (num_keys < 1) return Status::InvalidArgument("need >= 1 key");
  if (key_zipf_theta < 0) {
    return Status::InvalidArgument("key_theta must be non-negative");
  }
  if (shards < 1 || shards > num_keys) {
    return Status::InvalidArgument(
        "shards must be in [1, num_keys]: a shard without keys has no work "
        "and a key cannot span shards");
  }
  return Status::OK();
}

MultiKeySimulation::MultiKeySimulation(const MultiKeyConfig& config)
    : config_(config) {}

MultiKeySimulation::~MultiKeySimulation() = default;

Result<MultiKeyResult> MultiKeySimulation::Run(const MultiKeyConfig& config) {
  MultiKeySimulation sim(config);
  DUP_RETURN_IF_ERROR(sim.Init());
  sim.RunToCompletion();
  return sim.Collect();
}

uint64_t MultiKeySimulation::KeyStreamSeed(uint64_t base_seed,
                                           size_t key_index) {
  // Same shape as ParallelRunner::SeedForRun's sweep decorrelation: xor the
  // base with an odd-constant multiple of the stream index, then finalize
  // through SplitMix64 so adjacent keys land in unrelated stream families.
  return util::SplitMix64(base_seed ^
                          (0xD1B54A32D192ED03ULL * (key_index + 1)));
}

Status MultiKeySimulation::Init() {
  DUP_RETURN_IF_ERROR(config_.Validate());

  auto ring = chord::ChordRing::Create(config_.num_nodes);
  DUP_RETURN_IF_ERROR(ring.status());

  // Key popularity masses (rank k+1 gets mass ∝ 1/(k+1)^theta). Each key's
  // arrival process runs at lambda x mass, so the network-wide stream is
  // the same Poisson superposition the single-stream design produced —
  // but pre-split per key, which is what makes sharding order-free.
  std::vector<double> key_mass(config_.num_keys);
  double total_mass = 0.0;
  for (size_t k = 0; k < config_.num_keys; ++k) {
    key_mass[k] =
        1.0 / std::pow(static_cast<double>(k + 1), config_.key_zipf_theta);
    total_mass += key_mass[k];
  }
  for (double& m : key_mass) m /= total_mass;

  for (size_t s = 0; s < config_.shards; ++s) {
    engines_.push_back(std::make_unique<sim::Engine>());
  }
  const experiment::ExperimentConfig shared = SharedFields(config_);
  const double period = config_.ttl - config_.push_lead;
  for (size_t k = 0; k < config_.num_keys; ++k) {
    auto tree = chord::ChordTreeBuilder::BuildForKeyName(
        *ring, util::StrFormat("key-%zu", k));
    DUP_RETURN_IF_ERROR(tree.status());
    experiment::ExperimentConfig key_config = shared;
    key_config.lambda = config_.lambda * key_mass[k];
    // The key's entire event stream — arrivals, node picks, selector
    // permutation, network latency draws — comes from this one stream,
    // fully determined by (seed, key index). No other key touches it.
    key_config.seed = KeyStreamSeed(config_.seed, k);
    // Round-robin key -> shard assignment spreads the Zipf-hot head keys
    // across shards instead of packing them into shard 0. Version
    // boundaries are staggered uniformly across keys.
    keys_.push_back(std::make_unique<experiment::SimulationDriver>(
        key_config, engines_[k % config_.shards].get(), std::move(*tree),
        period * static_cast<double>(k) /
            static_cast<double>(config_.num_keys)));
    DUP_RETURN_IF_ERROR(keys_.back()->Init());
  }
  return Status::OK();
}

void MultiKeySimulation::RunToCompletion() {
  // One task per shard on the runner's worker pool. Shards are
  // shared-nothing at runtime (each touches only its own engine and its
  // keys' drivers), so completion order and thread count cannot affect
  // any metric.
  const sim::SimTime horizon = config_.warmup_time + config_.measure_time;
  experiment::ParallelRunner runner(config_.jobs);
  runner.RunTasks(engines_.size(),
                  [&](size_t s) { engines_[s]->RunUntil(horizon); });
}

MultiKeyResult MultiKeySimulation::Collect() const {
  MultiKeyResult result;
  result.shards = config_.shards;
  for (const auto& engine : engines_) {
    result.events_processed += engine->processed();
  }
  // Each key processes exactly one warm-up-end bookkeeping event; count
  // only simulation events so the total is shard-layout-invariant.
  result.events_processed -= keys_.size();

  std::unordered_map<NodeId, size_t> authority_counts;
  for (size_t k = 0; k < keys_.size(); ++k) {
    experiment::SimulationDriver& key = *keys_[k];
    KeyStats stats;
    stats.key_name = util::StrFormat("key-%zu", k);
    stats.authority = key.tree().root();
    stats.publishes = key.publishes();
    stats.metrics = key.Collect();
    if (key.adaptive_protocol() != nullptr) {
      stats.migrations = key.adaptive_protocol()->controller().migrations();
    }
    ++authority_counts[stats.authority];
    result.keys.push_back(std::move(stats));
  }

  // Aggregate = deterministic merge of per-key metrics in ascending key
  // order — the same fold under every shard count, which is exactly the
  // bit-identity invariant the shard tests pin. Layouts always match here
  // (every recorder uses the same histogram geometry), so Merge cannot
  // fail.
  metrics::RunMetrics total;
  for (const KeyStats& key : result.keys) {
    const Status merged = total.Merge(key.metrics);
    DUP_CHECK(merged.ok()) << merged.ToString();
  }
  result.aggregate = std::move(total);

  result.distinct_authorities = authority_counts.size();
  for (const auto& [node, count] : authority_counts) {
    result.max_keys_per_authority =
        std::max(result.max_keys_per_authority, count);
  }
  return result;
}

}  // namespace dupnet::multikey
