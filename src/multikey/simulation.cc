#include "multikey/simulation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "chord/tree_builder.h"
#include "core/adaptive_protocol.h"
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
  horizon_end_ = config_.warmup_time + config_.measure_time;

  auto ring = chord::ChordRing::Create(config_.num_nodes);
  DUP_RETURN_IF_ERROR(ring.status());

  auto schedule =
      workload::UpdateSchedule::Create(config_.ttl, config_.push_lead);
  DUP_RETURN_IF_ERROR(schedule.status());
  schedule_ = *schedule;

  proto::ProtocolOptions options;
  options.ttl = config_.ttl;
  options.threshold_c = config_.threshold_c;

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

  std::vector<NodeId> nodes(config_.num_nodes);
  for (size_t i = 0; i < config_.num_nodes; ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }

  // Round-robin key -> shard assignment spreads the Zipf-hot head keys
  // across shards instead of packing them into shard 0.
  shards_.clear();
  shards_.reserve(config_.shards);
  for (size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->sim = this;
    shards_.push_back(std::move(shard));
  }

  // Resize once up front: per-key Rng/recorder addresses handed to the
  // networks below must stay stable.
  keys_.resize(config_.num_keys);
  for (size_t k = 0; k < config_.num_keys; ++k) {
    KeyState& key = keys_[k];
    Shard& shard = *shards_[k % config_.shards];
    key.shard = &shard;
    shard.key_indices.push_back(k);

    key.name = util::StrFormat("key-%zu", k);
    // The key's entire event stream — arrivals, node picks, selector
    // permutation, network latency draws — comes from this one stream,
    // fully determined by (seed, key index). No other key touches it.
    key.rng = util::Rng(KeyStreamSeed(config_.seed, k));

    auto tree = chord::ChordTreeBuilder::BuildForKeyName(*ring, key.name);
    DUP_RETURN_IF_ERROR(tree.status());
    key.tree = std::make_unique<topo::IndexSearchTree>(std::move(*tree));
    key.recorder = std::make_unique<metrics::Recorder>();
    key.recorder->set_enabled(false);
    key.network = std::make_unique<net::OverlayNetwork>(
        &shard.engine, &key.rng, key.recorder.get(),
        config_.hop_latency_mean);
    key.network->set_faults(config_.faults);
    // Multikey mode has no cup_policy key: CUP keys run the default policy.
    key.protocol = experiment::MakeProtocol(
        config_.scheme, key.network.get(), key.tree.get(), options,
        proto::CupOptions(), config_.dup, config_.adaptive);
    key.network->set_sink(key.protocol.get());

    util::Rng perm = key.rng.Fork();
    key.selector = std::make_unique<workload::ZipfNodeSelector>(
        nodes, config_.node_zipf_theta, &perm);
    key.arrivals = std::make_unique<workload::ExponentialArrivals>(
        config_.lambda * key_mass[k]);

    // Stagger version boundaries uniformly across keys.
    key.phase_offset = schedule_->period() * static_cast<double>(k) /
                       static_cast<double>(config_.num_keys);
  }

  // Schedule each shard's warmup-end first so it wins the FIFO tie against
  // any key event landing exactly at warmup_time, under every shard count.
  for (auto& shard : shards_) {
    shard->engine.ScheduleAt(config_.warmup_time, shard.get(),
                             kEventWarmupEnd);
  }
  for (size_t k = 0; k < config_.num_keys; ++k) {
    KeyState& key = keys_[k];
    // First version at the key's phase offset; keys start cold before it.
    key.shard->engine.ScheduleAt(key.phase_offset, key.shard, kEventPublish,
                                 k);
    ScheduleNextQuery(k);
  }
  return Status::OK();
}

void MultiKeySimulation::Shard::OnSimEvent(uint32_t code, uint64_t arg) {
  switch (code) {
    case kEventWarmupEnd:
      sim->EndWarmup(this);
      break;
    case kEventQuery:
      sim->FireQuery(static_cast<size_t>(arg));
      break;
    case kEventPublish:
      sim->FirePublish(static_cast<size_t>(arg));
      break;
    default:
      DUP_CHECK(false) << "unknown multikey event code " << code;
  }
}

void MultiKeySimulation::EndWarmup(Shard* shard) {
  for (size_t k : shard->key_indices) {
    keys_[k].recorder->Reset();
    keys_[k].recorder->set_enabled(true);
  }
}

void MultiKeySimulation::ScheduleNextQuery(size_t key_index) {
  KeyState& key = keys_[key_index];
  const sim::SimTime next =
      key.shard->engine.Now() + key.arrivals->NextInterArrival(&key.rng);
  // Strictly before the horizon: an event at t == horizon_end_ would be
  // both scheduled and fired by RunUntil, half a measurement interval past
  // the last full one (the old <=/>= mismatch this replaces).
  if (next < horizon_end_) {
    key.shard->engine.ScheduleAt(next, key.shard, kEventQuery, key_index);
  }
}

void MultiKeySimulation::FireQuery(size_t key_index) {
  ScheduleNextQuery(key_index);
  KeyState& key = keys_[key_index];
  if (key.next_version == 1) return;  // Key not yet published.
  key.protocol->OnLocalQuery(key.selector->Sample(&key.rng));
}

void MultiKeySimulation::FirePublish(size_t key_index) {
  KeyState& key = keys_[key_index];
  sim::Engine& engine = key.shard->engine;
  const IndexVersion version = key.next_version++;
  ++key.publishes;
  key.protocol->OnRootPublish(version, engine.Now() + config_.ttl);
  const sim::SimTime next = engine.Now() + schedule_->period();
  if (next < horizon_end_) {
    engine.ScheduleAt(next, key.shard, kEventPublish, key_index);
  }
}

void MultiKeySimulation::RunToCompletion() {
  // One task per shard on the runner's worker pool. Shards are
  // shared-nothing at runtime (each touches only its own engine and its
  // keys' state; config_/schedule_/horizon_end_ are read-only), so
  // completion order and thread count cannot affect any metric.
  experiment::ParallelRunner runner(config_.jobs);
  runner.RunTasks(shards_.size(),
                  [&](size_t s) { shards_[s]->engine.RunUntil(horizon_end_); });
}

MultiKeyResult MultiKeySimulation::Collect() const {
  MultiKeyResult result;
  result.shards = config_.shards;
  for (const auto& shard : shards_) {
    // Each shard processes exactly one warmup-end bookkeeping event; count
    // only simulation events so the total is shard-layout-invariant.
    result.events_processed += shard->engine.processed() - 1;
  }

  std::unordered_map<NodeId, size_t> authority_counts;
  for (const KeyState& key : keys_) {
    KeyStats stats;
    stats.key_name = key.name;
    stats.authority = key.tree->root();
    stats.publishes = key.publishes;
    stats.metrics = metrics::RunMetrics::FromRecorder(*key.recorder);
    if (config_.scheme == experiment::Scheme::kAdaptive) {
      stats.migrations =
          static_cast<const core::AdaptiveProtocol*>(key.protocol.get())
              ->controller()
              .migrations();
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
