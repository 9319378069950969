// dupsim — the full-featured command-line front end to the simulator.
//
//   dupsim [key=value ...]
//
// Runs one scheme (scheme=pcx|cup|dup|adaptive) or the paper's three
// (scheme=all) with replications, 95% CIs and optional CSV/JSON output:
//
//   dupsim scheme=all nodes=4096 lambda=10 reps=5 csv=/tmp/fig4_point.csv
//   dupsim scheme=dup topology=chord lambda=3 theta=1.5
//   dupsim scheme=dup join=0.05 leave=0.02 fail=0.02   # churn
//   dupsim keys=64 shards=4 jobs=4 scheme=all nodes=1024 lambda=20
//
// The paper's parameters and every other ExperimentConfig knob are the
// rows of the config key table (src/experiment/config_keys.cc), shared
// with tools/dupd, the bench environment and run manifests; the tool keys
// are listed below. An unknown or malformed key exits with status 2 and
// the accepted keys with their doc lines and defaults.
//
// jobs=N fans the replications over N worker threads; results are
// bit-identical for any jobs value. transport=wire runs one scheme through
// a loopback UDP socket and audits the state built from decoded bytes
// (docs/wire-format.md). keys=K runs K keys over one Chord ring
// (docs/scaling.md "Sharded runs"), partitioned over shards=S engines;
// that mode accepts only the keys a multikey run honours.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "experiment/parallel_runner.h"
#include "experiment/realtime_runner.h"
#include "experiment/replicator.h"
#include "experiment/report.h"
#include "multikey/simulation.h"
#include "net/udp_transport.h"
#include "util/check.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/str.h"

namespace {

using namespace dupnet;
using experiment::ToolKey;
using experiment::ValueKind;

const ToolKey kSchemeKey{"scheme",
                         "pcx|cup|dup|adaptive, or all = pcx,cup,dup [dup]"};
const ToolKey kJobsKey{"jobs", "worker threads, 0 = one per core [1]",
                       ValueKind::kCount};
const ToolKey kCsvKey{"csv", "write the results table as CSV here"};
const ToolKey kJsonKey{"json", "write the results and run manifest here"};

experiment::KeySchema SingleKeySchema() {
  return {"dupsim",
          experiment::AllConfigKeys(),
          {kSchemeKey,
           {"reps", "replications per scheme [3]", ValueKind::kPositiveCount},
           kJobsKey, kCsvKey, kJsonKey}};
}

/// transport=wire runs one scheme once and prints its result: it has no
/// replications, worker threads or result files, so reps=, jobs=, csv= and
/// json= are refused rather than silently ignored.
experiment::KeySchema WireSchema() {
  return {"dupsim transport=wire mode", experiment::AllConfigKeys(),
          {kSchemeKey}};
}

experiment::KeySchema MultiKeySchema() {
  return {"dupsim keys=K mode",
          multikey::MultiKeyConfigKeys(),
          {kSchemeKey,
           {"keys", "number of keys K (selects this mode)",
            ValueKind::kPositiveCount},
           {"key_theta", "Zipf skew of popularity across keys [0.8]",
            ValueKind::kNonNegative},
           multikey::kShardsKey, kJobsKey, kCsvKey, kJsonKey}};
}

/// Applies `args` (plus environment aliases) onto the tool defaults in
/// `config`; a bad key prints the error and exits with status 2.
void ParseArgsOrExit(const experiment::KeySchema& schema,
                     util::ConfigMap* args,
                     experiment::ExperimentConfig* config) {
  util::Status status = experiment::ResolveEnvAliases(schema, args);
  if (status.ok()) status = experiment::ApplyKeys(schema, *args, config);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    std::exit(2);
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Writes the csv= and json= outputs, if requested.
void WriteOutputs(const util::ConfigMap& args, const util::CsvWriter& csv,
                  const metrics::RunManifest& manifest,
                  util::JsonValue schemes) {
  const std::string csv_path = args.GetString("csv", "");
  if (!csv_path.empty()) {
    DUP_CHECK_OK(csv.WriteToFile(csv_path));
    std::printf("\nwrote %s\n", csv_path.c_str());
  }
  const std::string json_path = args.GetString("json", "");
  if (json_path.empty()) return;
  util::JsonValue doc = util::JsonValue::MakeObject();
  doc.Set("manifest", manifest.ToJson());
  doc.Set("schemes", std::move(schemes));
  const std::string text = doc.Dump(2) + "\n";
  std::FILE* file = std::fopen(json_path.c_str(), "w");
  DUP_CHECK(file != nullptr) << "cannot write " << json_path;
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  std::printf("wrote %s\n", json_path.c_str());
}

std::vector<experiment::Scheme> SchemesFor(const std::string& name) {
  if (name == "all") {
    return {experiment::Scheme::kPcx, experiment::Scheme::kCup,
            experiment::Scheme::kDup};
  }
  auto scheme = experiment::ParseScheme(name);
  DUP_CHECK(scheme.ok()) << scheme.status().ToString();
  return {*scheme};
}

/// Inserts ".<scheme>" before the last extension of `base` so scheme=all
/// runs don't overwrite each other's traces (the Replicator then appends
/// its own ".p<point>.r<rep>" per replication).
std::string PerSchemeTracePath(const std::string& base,
                               experiment::Scheme scheme) {
  const std::string suffix = "." + std::string(experiment::SchemeToString(scheme));
  const size_t dot = base.rfind('.');
  const size_t slash = base.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

/// transport=wire mode: one single-process run in which every overlay
/// frame crosses a real loopback UDP socket in net::wire format, so the
/// protocol state that the end-of-run invariant audit inspects was built
/// entirely from decoded bytes. One scheme, one replication — this mode
/// validates the wire and transport layers, not the paper's metrics (the
/// golden RunMetrics contract belongs to transport=sim).
int RunWire(const util::ConfigMap& args,
            experiment::ExperimentConfig config) {
  const auto schemes = SchemesFor(args.GetString("scheme", "dup"));
  DUP_CHECK(schemes.size() == 1)
      << "transport=wire runs one scheme at a time (not scheme=all)";
  config.scheme = schemes[0];
  DUP_CHECK_OK(config.Validate());

  net::UdpTransport transport;
  net::UdpTransport::Options topts;
  topts.rank = 0;
  topts.peers = {util::StrFormat("127.0.0.1:%d", config.wire_port)};
  topts.loopback_wire = true;
  topts.frame_log_path = config.wire_frame_log;
  DUP_CHECK_OK(transport.Open(topts));

  experiment::SimulationDriver driver(config);
  driver.set_transport(&transport);
  DUP_CHECK_OK(driver.Init());
  transport.set_network(&driver.network());

  experiment::RealtimeOptions ropts;
  ropts.pace = config.wire_pace;
  experiment::RealtimeRunner runner(&driver, &transport, ropts);
  const auto wall_start = std::chrono::steady_clock::now();
  DUP_CHECK_OK(runner.Run(config.warmup_time + config.measure_time));
  const double wall_seconds = SecondsSince(wall_start);

  // Every frame was round-trip-verified in flight; now assert the state
  // they built satisfies the paper's structural invariants.
  DUP_CHECK_OK(driver.AuditQuiescent());
  DUP_CHECK(transport.frames_rejected() == 0)
      << transport.frames_rejected() << " inbound frames failed to parse";

  const metrics::RunMetrics metrics = driver.Collect();
  std::printf(
      "wire run (%s): %llu frames shipped in %llu datagrams, %llu "
      "received, %llu rejected in %.2fs wall (pace=%g)\n",
      std::string(experiment::SchemeToString(config.scheme)).c_str(),
      static_cast<unsigned long long>(transport.frames_shipped()),
      static_cast<unsigned long long>(transport.datagrams_shipped()),
      static_cast<unsigned long long>(transport.frames_received()),
      static_cast<unsigned long long>(transport.frames_rejected()),
      wall_seconds, config.wire_pace);
  std::printf(
      "latency=%.3f hops cost=%.3f hops/q local_hit=%.1f%% stale=%.1f%% "
      "queries=%llu\naudit: clean\n",
      metrics.avg_latency_hops, metrics.avg_cost_hops,
      100.0 * metrics.local_hit_rate, 100.0 * metrics.stale_rate,
      static_cast<unsigned long long>(metrics.queries));
  return 0;
}

/// keys=K mode: one sharded multi-key run per requested scheme, reported
/// through the same table/json conventions as the single-key path.
int RunMultiKey(util::ConfigMap* args) {
  experiment::ExperimentConfig shared;
  shared.num_nodes = 1024;
  shared.lambda = 10.0;
  shared.warmup_time = 3600.0;
  shared.measure_time = 10620.0;
  ParseArgsOrExit(MultiKeySchema(), args, &shared);
  multikey::MultiKeyConfig base = multikey::FromExperimentConfig(shared);
  base.num_keys = static_cast<size_t>(args->GetInt("keys", 16));
  base.key_zipf_theta = args->GetDouble("key_theta", 0.8);
  base.shards = static_cast<size_t>(args->GetInt("shards", 1));
  base.jobs = static_cast<size_t>(args->GetInt("jobs", 1));

  const auto schemes = SchemesFor(args->GetString("scheme", "dup"));

  experiment::TableReport table(
      util::StrFormat("dupsim multikey results (%zu keys, %zu nodes, "
                      "lambda=%.3g, shards=%zu)",
                      base.num_keys, base.num_nodes, base.lambda,
                      base.shards),
      {"scheme", "latency (hops)", "cost (hops/q)", "local hit", "stale",
       "queries", "authorities", "max keys/auth"});
  util::CsvWriter csv({"scheme", "latency", "cost", "local_hit", "stale",
                       "queries", "authorities", "max_keys_per_authority"});

  const auto wall_start = std::chrono::steady_clock::now();
  util::JsonValue json_schemes = util::JsonValue::MakeObject();
  for (experiment::Scheme scheme : schemes) {
    multikey::MultiKeyConfig config = base;
    config.scheme = scheme;
    const auto scheme_start = std::chrono::steady_clock::now();
    auto result = multikey::MultiKeySimulation::Run(config);
    DUP_CHECK(result.ok()) << result.status().ToString();
    const double scheme_seconds = SecondsSince(scheme_start);
    const std::string name(experiment::SchemeToString(scheme));
    std::printf("%s: %llu events on %zu shard(s) in %.2fs wall\n",
                name.c_str(),
                static_cast<unsigned long long>(result->events_processed),
                result->shards, scheme_seconds);

    const metrics::RunMetrics& agg = result->aggregate;
    table.AddRow({name, util::StrFormat("%.3f", agg.avg_latency_hops),
                  util::StrFormat("%.3f", agg.avg_cost_hops),
                  experiment::PercentCell(agg.local_hit_rate),
                  experiment::PercentCell(agg.stale_rate),
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      agg.queries)),
                  util::StrFormat("%zu", result->distinct_authorities),
                  util::StrFormat("%zu", result->max_keys_per_authority)});
    csv.AddRow({name, util::CsvWriter::Cell(agg.avg_latency_hops),
                util::CsvWriter::Cell(agg.avg_cost_hops),
                util::CsvWriter::Cell(agg.local_hit_rate),
                util::CsvWriter::Cell(agg.stale_rate),
                util::CsvWriter::Cell(agg.queries),
                util::CsvWriter::Cell(result->distinct_authorities),
                util::CsvWriter::Cell(result->max_keys_per_authority)});

    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("latency_mean", agg.avg_latency_hops);
    entry.Set("cost_mean", agg.avg_cost_hops);
    entry.Set("local_hit_rate", agg.local_hit_rate);
    entry.Set("stale_rate", agg.stale_rate);
    entry.Set("queries", agg.queries);
    entry.Set("distinct_authorities",
              static_cast<uint64_t>(result->distinct_authorities));
    entry.Set("max_keys_per_authority",
              static_cast<uint64_t>(result->max_keys_per_authority));
    entry.Set("events_processed", result->events_processed);
    json_schemes.Set(name, std::move(entry));
  }
  const double total_seconds = SecondsSince(wall_start);
  table.Print();

  metrics::RunManifest manifest = metrics::RunManifest::Create(
      "dupsim", "multikey:" + args->GetString("scheme", "dup"));
  manifest.seed = base.seed;
  manifest.jobs = base.jobs == 0 ? experiment::ParallelRunner::DefaultJobs()
                                 : base.jobs;
  manifest.shards = base.shards;
  manifest.wall_seconds = total_seconds;
  manifest.config = multikey::ManifestConfig(base);
  WriteOutputs(*args, csv, manifest, std::move(json_schemes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = util::ConfigMap::FromArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "usage: %s [key=value ...]\n  %s\n", argv[0],
                 args.status().ToString().c_str());
    return 1;
  }

  if (args->Has("keys")) return RunMultiKey(&*args);

  // A shorter horizon than the struct's (DESIGN.md §2): one warm-up TTL,
  // then three TTL-aligned update periods.
  experiment::ExperimentConfig base;
  base.warmup_time = 3600.0;
  base.measure_time = 10620.0;
  ParseArgsOrExit(SingleKeySchema(), &*args, &base);
  if (base.transport == experiment::TransportKind::kWire) {
    ParseArgsOrExit(WireSchema(), &*args, &base);
    return RunWire(*args, base);
  }
  const auto schemes = SchemesFor(args->GetString("scheme", "dup"));
  const size_t reps = static_cast<size_t>(args->GetInt("reps", 3));
  const size_t jobs_arg = static_cast<size_t>(args->GetInt("jobs", 1));
  const size_t jobs =
      jobs_arg == 0 ? experiment::ParallelRunner::DefaultJobs() : jobs_arg;

  experiment::TableReport table(
      "dupsim results (" + base.ToString() + ")",
      {"scheme", "latency (hops)", "p95", "p99", "cost (hops/q)",
       "local hit", "stale", "queries"});
  util::CsvWriter csv({"scheme", "latency", "latency_hw", "latency_p95",
                       "latency_p99", "cost", "cost_hw", "local_hit",
                       "stale", "queries"});

  const auto wall_start = std::chrono::steady_clock::now();
  size_t total_runs = 0;
  util::JsonValue json_schemes = util::JsonValue::MakeObject();
  for (experiment::Scheme scheme : schemes) {
    experiment::ExperimentConfig config = base;
    config.scheme = scheme;
    if (!config.trace_path.empty() && schemes.size() > 1) {
      config.trace_path = PerSchemeTracePath(config.trace_path, scheme);
    }
    const auto scheme_start = std::chrono::steady_clock::now();
    auto summary = experiment::Replicator::Run(config, reps, jobs);
    DUP_CHECK(summary.ok()) << summary.status().ToString();
    const double scheme_seconds = SecondsSince(scheme_start);
    total_runs += reps;
    std::printf("%s: %zu reps on %zu thread(s) in %.2fs wall\n",
                std::string(experiment::SchemeToString(scheme)).c_str(), reps,
                jobs, scheme_seconds);

    uint64_t p95 = 0, p99 = 0;
    for (const auto& run : summary->runs) {
      p95 = std::max(p95, run.latency_p95);
      p99 = std::max(p99, run.latency_p99);
    }
    const std::string name(experiment::SchemeToString(scheme));
    table.AddRow({name,
                  experiment::CiCell(summary->latency.mean,
                                     summary->latency.half_width),
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(p95)),
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(p99)),
                  experiment::CiCell(summary->cost.mean,
                                     summary->cost.half_width),
                  experiment::PercentCell(summary->local_hit_rate.mean),
                  experiment::PercentCell(summary->stale_rate.mean),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              summary->total_queries))});
    csv.AddRow({name, util::CsvWriter::Cell(summary->latency.mean),
                util::CsvWriter::Cell(summary->latency.half_width),
                util::CsvWriter::Cell(p95), util::CsvWriter::Cell(p99),
                util::CsvWriter::Cell(summary->cost.mean),
                util::CsvWriter::Cell(summary->cost.half_width),
                util::CsvWriter::Cell(summary->local_hit_rate.mean),
                util::CsvWriter::Cell(summary->stale_rate.mean),
                util::CsvWriter::Cell(summary->total_queries)});

    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("latency_mean", summary->latency.mean);
    entry.Set("latency_half_width", summary->latency.half_width);
    entry.Set("latency_p95", p95);
    entry.Set("latency_p99", p99);
    entry.Set("cost_mean", summary->cost.mean);
    entry.Set("cost_half_width", summary->cost.half_width);
    entry.Set("local_hit_rate", summary->local_hit_rate.mean);
    entry.Set("stale_rate", summary->stale_rate.mean);
    entry.Set("total_queries", summary->total_queries);
    json_schemes.Set(name, std::move(entry));
  }
  const double total_seconds = SecondsSince(wall_start);
  std::printf("total: %zu runs in %.2fs wall (%.2f runs/s, jobs=%zu)\n\n",
              total_runs, total_seconds,
              total_seconds > 0.0
                  ? static_cast<double>(total_runs) / total_seconds
                  : 0.0,
              jobs);
  if (base.audit_mode != audit::AuditMode::kOff) {
    // A violation would have aborted above with its diagnostic; reaching
    // here means every audited run was invariant-clean.
    std::printf("audit: %s mode, all %zu runs clean\n",
                std::string(audit::AuditModeToString(base.audit_mode)).c_str(),
                total_runs);
  }
  table.Print();

  metrics::RunManifest manifest = experiment::MakeRunManifest(
      "dupsim", args->GetString("scheme", "dup"), base, jobs);
  manifest.wall_seconds = total_seconds;
  WriteOutputs(*args, csv, manifest, std::move(json_schemes));
  return 0;
}
