#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "experiment/config_keys.h"
#include "multikey/simulation.h"
#include "util/check.h"
#include "util/str.h"

namespace dupnet::bench {

namespace {

/// The keys every bench takes from the environment. A typo in one must not
/// silently run the wrong experiment, so malformed values are fatal.
const experiment::KeySchema kEnvSchema{
    "bench environment",
    {"trace_out", "trace_sample", "audit", "audit_interval"},
    {{"reps", "replications per sweep point",
      experiment::ValueKind::kPositiveCount, "DUP_BENCH_REPS"},
     {"jobs", "sweep worker threads, 0 = one per core",
      experiment::ValueKind::kCount, "DUP_BENCH_JOBS"},
     multikey::kShardsKey}};

}  // namespace

BenchSettings BenchSettings::FromEnv() {
  BenchSettings settings;
  const char* full = std::getenv("DUP_BENCH_FULL");
  if (full != nullptr && std::string(full) == "1") {
    settings.full = true;
    settings.replications = 5;
    settings.warmup_time = 2 * 3540.0;
    settings.measure_time = 180000.0;  // The paper's horizon.
  }
  util::ConfigMap& env = settings.env_keys;
  DUP_CHECK_OK(experiment::ResolveEnvAliases(kEnvSchema, &env));
  settings.replications = static_cast<size_t>(
      env.GetInt("reps", static_cast<int64_t>(settings.replications)));
  settings.jobs = static_cast<size_t>(env.GetInt("jobs", 0));
  settings.shards =
      static_cast<size_t>(env.GetInt(multikey::kShardsKey.name, 1));
  return settings;
}

size_t BenchSettings::effective_jobs() const {
  return jobs == 0 ? experiment::ParallelRunner::DefaultJobs() : jobs;
}

void BenchSettings::Apply(experiment::ExperimentConfig* config) const {
  config->warmup_time = warmup_time;
  config->measure_time = measure_time;
  DUP_CHECK_OK(experiment::ApplyKeys(kEnvSchema, env_keys, config));
}

experiment::ExperimentConfig PaperDefaults(const BenchSettings& settings) {
  experiment::ExperimentConfig config;  // Table I defaults built in.
  settings.Apply(&config);
  return config;
}

void PrintHeader(const std::string& exhibit, const BenchSettings& settings) {
  std::printf("=== Reproducing %s (DUP, Yin & Cao, ICDE 2005) ===\n",
              exhibit.c_str());
  std::printf(
      "mode=%s reps=%zu warmup=%.0fs measure=%.0fs jobs=%zu "
      "(DUP_BENCH_FULL=1 for the paper-scale horizon)\n\n",
      settings.full ? "full" : "quick", settings.replications,
      settings.warmup_time, settings.measure_time, settings.effective_jobs());
}

void PrintExpectation(const std::string& text) {
  std::printf("\npaper's reported shape: %s\n\n", text.c_str());
}

void PrintBatchTiming(const experiment::BatchTiming& timing) {
  const double mean = timing.runs > 0
                          ? timing.total_run_seconds /
                                static_cast<double>(timing.runs)
                          : 0.0;
  std::printf(
      "batch: %zu runs on %zu threads in %.2fs wall (%.2f runs/s, "
      "efficiency %.0f%%); per-run wall min/mean/max %.2f/%.2f/%.2fs\n",
      timing.runs, timing.jobs, timing.wall_seconds, timing.runs_per_second(),
      100.0 * timing.parallel_efficiency(), timing.min_run_seconds, mean,
      timing.max_run_seconds);
}

experiment::SchemeComparison MustCompare(
    const experiment::ExperimentConfig& config, size_t replications,
    size_t jobs) {
  auto comparison = experiment::CompareSchemes(config, replications, jobs);
  DUP_CHECK(comparison.ok()) << comparison.status().ToString();
  return std::move(*comparison);
}

metrics::ReplicationSummary MustRun(
    const experiment::ExperimentConfig& config, size_t replications,
    size_t jobs) {
  auto summary = experiment::Replicator::Run(config, replications, jobs);
  DUP_CHECK(summary.ok()) << summary.status().ToString();
  return std::move(*summary);
}

std::vector<experiment::SchemeComparison> MustCompareSweep(
    const std::vector<experiment::ExperimentConfig>& points,
    const BenchSettings& settings) {
  auto sweep = experiment::CompareSweep(points, settings.replications,
                                        settings.effective_jobs());
  DUP_CHECK(sweep.ok()) << sweep.status().ToString();
  PrintBatchTiming(sweep->timing);
  return std::move(sweep->points);
}

std::vector<metrics::ReplicationSummary> MustRunSweep(
    const std::vector<experiment::ExperimentConfig>& points,
    const BenchSettings& settings) {
  auto sweep = experiment::RunSweep(points, settings.replications,
                                    settings.effective_jobs());
  DUP_CHECK(sweep.ok()) << sweep.status().ToString();
  PrintBatchTiming(sweep->timing);
  return std::move(sweep->points);
}

experiment::TableReport LatencyCostTable(
    std::string title, std::vector<std::string> point_columns) {
  for (const char* column : {"PCX latency", "CUP latency", "DUP latency",
                             "CUP cost/PCX", "DUP cost/PCX"}) {
    point_columns.push_back(column);
  }
  return experiment::TableReport(std::move(title), std::move(point_columns));
}

void AddLatencyCostRow(experiment::TableReport* table,
                       std::vector<std::string> point_cells,
                       const experiment::SchemeComparison& cmp) {
  for (const auto* scheme : {&cmp.pcx, &cmp.cup, &cmp.dup}) {
    point_cells.push_back(
        experiment::CiCell(scheme->latency.mean, scheme->latency.half_width));
  }
  point_cells.push_back(
      experiment::PercentCell(cmp.cup_cost_relative_to_pcx()));
  point_cells.push_back(
      experiment::PercentCell(cmp.dup_cost_relative_to_pcx()));
  table->AddRow(std::move(point_cells));
}

void MaybeWriteCsv(const experiment::TableReport& table,
                   const std::string& exhibit) {
  const char* dir = std::getenv("DUP_BENCH_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = util::StrFormat("%s/%s.csv", dir,
                                           exhibit.c_str());
  std::FILE* file = std::fopen(path.c_str(), "w");
  DUP_CHECK(file != nullptr) << "cannot write " << path;
  const std::string csv = table.ToCsv();
  std::fwrite(csv.data(), 1, csv.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

metrics::RunManifest MakeBenchManifest(
    const std::string& tool, const std::string& exhibit,
    const experiment::ExperimentConfig& config,
    const BenchSettings& settings) {
  metrics::RunManifest manifest = experiment::MakeRunManifest(
      tool, exhibit, config, settings.effective_jobs());
  manifest.config.Set("bench_replications",
                      static_cast<uint64_t>(settings.replications));
  manifest.config.Set("bench_mode", settings.full ? "full" : "quick");
  return manifest;
}

void WriteJsonArtifact(const util::JsonValue& doc,
                       const std::string& default_path,
                       const char* env_override) {
  const char* env_path =
      env_override != nullptr ? std::getenv(env_override) : nullptr;
  const std::string path =
      env_path != nullptr && *env_path != '\0' ? env_path : default_path;
  const std::string text = doc.Dump(2) + "\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::printf("\n(could not open %s; JSON record printed below)\n%s",
                path.c_str(), text.c_str());
    return;
  }
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace dupnet::bench
