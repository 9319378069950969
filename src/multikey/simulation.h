#ifndef DUP_MULTIKEY_SIMULATION_H_
#define DUP_MULTIKEY_SIMULATION_H_

#include <memory>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "metrics/summary.h"
#include "net/fault_injection.h"
#include "proto/adaptive_controller.h"
#include "sim/engine.h"
#include "util/json.h"

namespace dupnet::experiment {
class SimulationDriver;
}

namespace dupnet::multikey {

/// Parameters for a many-keys run. The paper simulates a single index; a
/// deployed system hosts thousands, each hashed to its own authority node.
/// This layer runs K keys over one Chord ring, with query traffic split
/// across keys by a Zipf popularity law, and reports both aggregate and
/// per-key metrics plus how evenly the authority role spreads.
struct MultiKeyConfig {
  size_t num_nodes = 1024;
  size_t num_keys = 16;
  experiment::Scheme scheme = experiment::Scheme::kDup;

  /// Total query rate across all keys (queries/s network-wide). Each key
  /// runs an independent Poisson stream at lambda x (its popularity mass);
  /// the superposition is a Poisson process at lambda.
  double lambda = 10.0;
  /// Popularity skew across keys (key rank r gets mass ∝ 1/r^theta).
  double key_zipf_theta = 0.8;
  /// Query skew across nodes, as in the single-key experiments.
  double node_zipf_theta = 0.8;

  double ttl = 3600.0;
  double push_lead = 60.0;
  uint32_t threshold_c = 6;
  double hop_latency_mean = 0.1;

  /// DUP-specific options (arity cap, shortcut ablation); also the DUP
  /// regime of Scheme::kAdaptive.
  core::DupOptions dup;
  /// Adaptive-controller options (Scheme::kAdaptive only).
  proto::AdaptiveOptions adaptive;

  /// Message-level fault model applied to every key's network (default:
  /// strict no-op, zero extra RNG draws). Must Validate(). A positive
  /// refresh_interval runs each key's soft-state refresh on that period.
  net::FaultConfig faults;

  double warmup_time = 3600.0;
  double measure_time = 10620.0;
  uint64_t seed = 42;

  /// Number of engine shards the K keys are partitioned over (round-robin).
  /// Each shard owns a private sim::Engine and runs on its own worker;
  /// merged results are bit-identical for every value in [1, num_keys]
  /// because each key's event stream is derived only from (seed, key).
  size_t shards = 1;
  /// Worker threads driving the shards; 0 = one per hardware thread.
  size_t jobs = 0;

  util::Status Validate() const;
};

/// The ExperimentConfig keys (experiment/config_keys.h) a multikey run
/// honours: exactly the fields FromExperimentConfig carries over.
const std::vector<std::string_view>& MultiKeyConfigKeys();

/// The engine shard count key of dupsim keys=K mode and the multikey
/// benches.
inline constexpr experiment::ToolKey kShardsKey{
    "shards", "engine shards the keys are partitioned over [1]",
    experiment::ValueKind::kPositiveCount, "DUP_SHARDS"};

/// A MultiKeyConfig carrying the MultiKeyConfigKeys() fields of `config`;
/// num_keys, key_zipf_theta, shards and jobs keep their defaults.
MultiKeyConfig FromExperimentConfig(const experiment::ExperimentConfig& config);

/// The manifest config block of a multikey run: the MultiKeyConfigKeys()
/// under their command-line names, plus keys and key_theta.
util::JsonValue ManifestConfig(const MultiKeyConfig& config);

/// Per-key outcome.
struct KeyStats {
  std::string key_name;
  NodeId authority = kInvalidNode;
  /// Root publishes fired for this key over the whole horizon (including
  /// warm-up; independent of the recorder's enable window).
  uint64_t publishes = 0;
  metrics::RunMetrics metrics;
  /// The key's regime-migration history (Scheme::kAdaptive only; empty
  /// otherwise). A deterministic function of the key's event stream, so
  /// bit-identical across shard and job counts — pinned by the adaptive
  /// determinism tests.
  std::vector<proto::AdaptiveController::Migration> migrations;
};

/// Whole-run outcome.
struct MultiKeyResult {
  metrics::RunMetrics aggregate;
  std::vector<KeyStats> keys;
  /// Largest number of keys for which a single node is the authority —
  /// the load-balance property the DHT hashing provides.
  size_t max_keys_per_authority = 0;
  /// Distinct nodes acting as an authority.
  size_t distinct_authorities = 0;
  /// Shard count the run executed with (layout-invariant metrics above).
  size_t shards = 1;
  /// Simulation events processed across all shard engines.
  uint64_t events_processed = 0;
};

/// Runs a multi-key simulation to completion, optionally sharded across
/// worker threads.
///
/// Each key is one experiment::SimulationDriver in its hosted form: the
/// single-key model with its own index search tree (derived from the one
/// shared Chord ring), protocol, overlay network, recorder, Zipf node
/// selector, arrival process at lambda x (the key's popularity mass) and —
/// crucially — its own SplitMix64-decorrelated RNG stream seeded by
/// (seed, key). Keys share no mutable state, so the K per-key event
/// sequences are independent of how keys are grouped onto engines. Shards
/// merely partition the drivers round-robin onto S engines driven
/// concurrently; Collect() merges per-key metrics in ascending key order,
/// so the merged RunMetrics are bit-identical for every shard count
/// (pinned by tests/multikey_test.cc).
///
/// Update schedules are phase-staggered across keys so version boundaries
/// do not synchronise artificially.
class MultiKeySimulation {
 public:
  static util::Result<MultiKeyResult> Run(const MultiKeyConfig& config);

  ~MultiKeySimulation();

 private:
  explicit MultiKeySimulation(const MultiKeyConfig& config);

  util::Status Init();
  void RunToCompletion();
  MultiKeyResult Collect() const;

  /// Per-key decorrelated stream seed: SplitMix64 over (seed, key index),
  /// mirroring ParallelRunner::SeedForRun's stream-family scheme.
  static uint64_t KeyStreamSeed(uint64_t base_seed, size_t key_index);

  MultiKeyConfig config_;
  /// One engine per shard; key k runs on engines_[k % shards].
  std::vector<std::unique_ptr<sim::Engine>> engines_;
  /// Key k's driver at index k.
  std::vector<std::unique_ptr<experiment::SimulationDriver>> keys_;
};

}  // namespace dupnet::multikey

#endif  // DUP_MULTIKEY_SIMULATION_H_
