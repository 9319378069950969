#ifndef DUP_BENCH_BENCH_COMMON_H_
#define DUP_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/manifest.h"
#include "experiment/parallel_runner.h"
#include "experiment/replicator.h"
#include "experiment/report.h"
#include "metrics/run_manifest.h"
#include "util/config.h"
#include "util/json.h"

namespace dupnet::bench {

/// Shared run parameters for the reproduction harness.
///
/// Default ("quick") mode keeps every binary in the tens-of-seconds range;
/// setting DUP_BENCH_FULL=1 restores the paper's 180,000 s horizon and the
/// largest network sizes. DUP_BENCH_REPS overrides the replication count.
/// DUP_BENCH_JOBS sets the worker-thread count for sweep fan-out (0 = one
/// thread per hardware core, the default). Results are bit-identical for
/// every jobs value.
///
/// The environment aliases of the config key table (experiment/
/// config_keys.h) reach every run through the table's own parsers:
/// DUP_TRACE_OUT / DUP_TRACE_SAMPLE stream message events to JSONL files
/// derived from the given path (".p<point>.r<rep>" per batch slot), and
/// DUP_AUDIT / DUP_AUDIT_INTERVAL arm the invariant auditor
/// (docs/invariants.md). Both are metrics-neutral; an invariant violation
/// aborts the bench with its diagnostic. DUP_SHARDS sets the intra-run
/// engine shard count of the multikey benches (merged metrics are
/// bit-identical for every value). A malformed value of any of these
/// variables aborts with a diagnostic naming it instead of being ignored.
struct BenchSettings {
  size_t replications = 2;
  double warmup_time = 3600.0;
  double measure_time = 3 * 3540.0;
  bool full = false;
  size_t jobs = 0;  ///< 0 = all hardware threads.
  size_t shards = 1;  ///< Intra-run engine shards (multikey benches).
  /// Config keys set through environment aliases, applied by Apply().
  util::ConfigMap env_keys;

  /// Reads the environment.
  static BenchSettings FromEnv();

  /// The resolved worker-thread count (jobs, with 0 mapped to cores).
  size_t effective_jobs() const;

  /// Applies the horizon and env_keys to a config (topology/workload
  /// fields untouched).
  void Apply(experiment::ExperimentConfig* config) const;
};

/// The paper's Table I defaults with this harness's horizon applied.
experiment::ExperimentConfig PaperDefaults(const BenchSettings& settings);

/// Prints the standard header: which exhibit is being reproduced and under
/// which settings.
void PrintHeader(const std::string& exhibit, const BenchSettings& settings);

/// Prints the expected-shape note from the paper for comparison.
void PrintExpectation(const std::string& text);

/// Prints one batch's wall-clock/throughput line (the "report path" for
/// the parallel runner): runs, threads, wall seconds, runs/sec, and the
/// min/mean/max per-run wall clock.
void PrintBatchTiming(const experiment::BatchTiming& timing);

/// Runs all three schemes at `config` and aborts on error.
experiment::SchemeComparison MustCompare(
    const experiment::ExperimentConfig& config, size_t replications,
    size_t jobs = 1);

/// Runs one scheme and aborts on error.
metrics::ReplicationSummary MustRun(
    const experiment::ExperimentConfig& config, size_t replications,
    size_t jobs = 1);

/// Runs the whole sweep — points × {PCX, CUP, DUP} × replications — as one
/// shared-nothing batch on settings.effective_jobs() threads, prints the
/// batch timing, and aborts on error. Results are in point order.
std::vector<experiment::SchemeComparison> MustCompareSweep(
    const std::vector<experiment::ExperimentConfig>& points,
    const BenchSettings& settings);

/// Same fan-out for single-scheme sweeps (each point keeps its scheme).
std::vector<metrics::ReplicationSummary> MustRunSweep(
    const std::vector<experiment::ExperimentConfig>& points,
    const BenchSettings& settings);

/// Figures 4 and 6-8 share one table: the sweep point's own columns, then
/// panel (a), PCX/CUP/DUP latency with 95% CIs, and panel (b), CUP and DUP
/// cost relative to PCX.
experiment::TableReport LatencyCostTable(
    std::string title, std::vector<std::string> point_columns);

/// Adds one sweep point to a LatencyCostTable: `point_cells`, then the
/// five panel cells of `cmp`.
void AddLatencyCostRow(experiment::TableReport* table,
                       std::vector<std::string> point_cells,
                       const experiment::SchemeComparison& cmp);

/// If DUP_BENCH_CSV_DIR is set, writes the table as
/// "<dir>/<exhibit>.csv" for downstream plotting and says so on stdout.
void MaybeWriteCsv(const experiment::TableReport& table,
                   const std::string& exhibit);

/// Provenance manifest for a bench run of `config`: tool/exhibit, commit,
/// host, seed, jobs, flattened config plus the harness knobs (reps, mode).
/// The caller stamps wall_seconds before embedding.
metrics::RunManifest MakeBenchManifest(const std::string& tool,
                                       const std::string& exhibit,
                                       const experiment::ExperimentConfig& config,
                                       const BenchSettings& settings);

/// Writes `doc` pretty-printed to `env_override`'s value when that
/// environment variable is set and non-empty, else to `default_path`.
/// Falls back to printing the JSON on stdout when the file cannot be
/// opened (so CI logs still capture the artifact).
void WriteJsonArtifact(const util::JsonValue& doc,
                       const std::string& default_path,
                       const char* env_override);

}  // namespace dupnet::bench

#endif  // DUP_BENCH_BENCH_COMMON_H_
