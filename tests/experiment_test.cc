#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "experiment/replicator.h"
#include "experiment/report.h"

#include <cstdlib>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

namespace dupnet::experiment {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_nodes = 128;
  config.lambda = 2.0;
  config.ttl = 600.0;
  config.push_lead = 30.0;
  config.warmup_time = 600.0;
  config.measure_time = 1800.0;
  config.seed = 11;
  return config;
}

TEST(ConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(ExperimentConfig().Validate().ok());
}

TEST(ConfigTest, RejectsBadParameters) {
  ExperimentConfig config;
  config.num_nodes = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExperimentConfig();
  config.lambda = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = ExperimentConfig();
  config.push_lead = config.ttl;
  EXPECT_FALSE(config.Validate().ok());
  config = ExperimentConfig();
  config.arrival = ArrivalKind::kPareto;
  config.pareto_alpha = 2.5;
  EXPECT_FALSE(config.Validate().ok());
  config = ExperimentConfig();
  config.zipf_theta = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExperimentConfig();
  config.measure_time = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, ParseRoundTrips) {
  for (Scheme s : {Scheme::kPcx, Scheme::kCup, Scheme::kDup}) {
    auto parsed = ParseScheme(SchemeToString(s));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, s);
  }
  for (TopologyKind t : {TopologyKind::kRandomTree, TopologyKind::kChord}) {
    auto parsed = ParseTopology(TopologyToString(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  for (ArrivalKind a : {ArrivalKind::kExponential, ArrivalKind::kPareto}) {
    auto parsed = ParseArrival(ArrivalToString(a));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, a);
  }
  EXPECT_FALSE(ParseScheme("bogus").ok());
  EXPECT_FALSE(ParseTopology("bogus").ok());
  EXPECT_FALSE(ParseArrival("bogus").ok());
}

TEST(ConfigTest, ToStringMentionsScheme) {
  ExperimentConfig config;
  config.scheme = Scheme::kCup;
  EXPECT_NE(config.ToString().find("cup"), std::string::npos);
}

class DriverSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(DriverSchemeTest, RunsAndProducesSaneMetrics) {
  ExperimentConfig config = SmallConfig();
  config.scheme = GetParam();
  auto metrics = SimulationDriver::Run(config);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->queries, 1000u);
  EXPECT_GE(metrics->avg_latency_hops, 0.0);
  EXPECT_GT(metrics->avg_cost_hops, 0.0);
  EXPECT_GE(metrics->local_hit_rate, 0.0);
  EXPECT_LE(metrics->local_hit_rate, 1.0);
  EXPECT_GE(metrics->stale_rate, 0.0);
  EXPECT_LE(metrics->stale_rate, 1.0);
  // Cost includes request+reply symmetric hops at minimum.
  EXPECT_GE(metrics->hops.reply(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DriverSchemeTest,
                         ::testing::Values(Scheme::kPcx, Scheme::kCup,
                                           Scheme::kDup));

TEST(DriverTest, DeterministicForSameSeed) {
  ExperimentConfig config = SmallConfig();
  auto a = SimulationDriver::Run(config);
  auto b = SimulationDriver::Run(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->queries, b->queries);
  EXPECT_DOUBLE_EQ(a->avg_latency_hops, b->avg_latency_hops);
  EXPECT_DOUBLE_EQ(a->avg_cost_hops, b->avg_cost_hops);
  EXPECT_EQ(a->hops.total(), b->hops.total());
}

TEST(DriverTest, DifferentSeedsDiffer) {
  ExperimentConfig config = SmallConfig();
  auto a = SimulationDriver::Run(config);
  config.seed = 12;
  auto b = SimulationDriver::Run(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->hops.total(), b->hops.total());
}

TEST(DriverTest, PcxHasNoPushOrControlTraffic) {
  ExperimentConfig config = SmallConfig();
  config.scheme = Scheme::kPcx;
  auto metrics = SimulationDriver::Run(config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->hops.push(), 0u);
  EXPECT_EQ(metrics->hops.control(), 0u);
}

TEST(DriverTest, DupPushesAndSubscribes) {
  ExperimentConfig config = SmallConfig();
  config.scheme = Scheme::kDup;
  auto metrics = SimulationDriver::Run(config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->hops.push(), 0u);
  EXPECT_GT(metrics->hops.control(), 0u);
}

class DriverTopologyTest : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(DriverTopologyTest, EverySubstrateRuns) {
  ExperimentConfig config = SmallConfig();
  config.topology = GetParam();
  auto metrics = SimulationDriver::Run(config);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->queries, 0u);
  EXPECT_GT(metrics->avg_cost_hops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DriverTopologyTest,
                         ::testing::Values(TopologyKind::kRandomTree,
                                           TopologyKind::kChord));

TEST(DriverTest, InstanceApiExposesInternals) {
  ExperimentConfig config = SmallConfig();
  config.scheme = Scheme::kDup;
  SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  EXPECT_EQ(driver.tree().size(), config.num_nodes);
  EXPECT_NE(driver.dup_protocol(), nullptr);
  driver.RunUntil(config.warmup_time / 2);
  EXPECT_EQ(driver.recorder().queries_served(), 0u);  // Still warming up.
  driver.RunToCompletion();
  EXPECT_GT(driver.recorder().queries_served(), 0u);
}

TEST(DriverTest, ChurnRunStaysConsistent) {
  ExperimentConfig config = SmallConfig();
  config.scheme = Scheme::kDup;
  config.churn.join_rate = 0.05;
  config.churn.leave_rate = 0.02;
  config.churn.fail_rate = 0.02;
  config.churn.detect_delay = 10.0;
  config.audit_mode = audit::AuditMode::kCheckpoints;
  SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  // RunToCompletion drains in-flight traffic, runs the reconvergence
  // sequence (clean refresh round + prune), and force-audits globally.
  driver.RunToCompletion();
  EXPECT_GT(driver.churn_events_applied(), 0u);
  EXPECT_TRUE(driver.tree().Validate().ok());
  ASSERT_NE(driver.audit_checker(), nullptr);
  EXPECT_EQ(driver.audit_checker()->total_violations(), 0u)
      << driver.audit_checker()->Summary();
  EXPECT_EQ(driver.tree().size(), driver.live_nodes().size());
}

TEST(DriverTest, ChurnRunWithAllSchemes) {
  for (Scheme scheme : {Scheme::kPcx, Scheme::kCup, Scheme::kDup}) {
    ExperimentConfig config = SmallConfig();
    config.scheme = scheme;
    config.churn.join_rate = 0.05;
    config.churn.fail_rate = 0.05;
    config.churn.detect_delay = 5.0;
    auto metrics = SimulationDriver::Run(config);
    ASSERT_TRUE(metrics.ok()) << SchemeToString(scheme);
    EXPECT_GT(metrics->queries, 0u);
  }
}

TEST(DriverTest, HostDrivenUpdatesRun) {
  ExperimentConfig config = SmallConfig();
  config.scheme = Scheme::kDup;
  config.update_mode = UpdateMode::kHostDriven;
  config.host_change_rate = 1.0 / 300.0;
  auto metrics = SimulationDriver::Run(config);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_GT(metrics->hops.push(), 0u);  // Updates did happen and propagate.
}

// Nothing is scheduled at t == warmup + measure: RunUntil fires events at
// exactly its end time, so a publish or refresh round there would send
// messages none of which can land inside the measurement window.
TEST(DriverTest, NothingFiresOnTheHorizon) {
  ExperimentConfig config;
  config.scheme = Scheme::kDup;
  config.num_nodes = 64;
  config.lambda = 4.0;
  config.warmup_time = 0.0;
  config.measure_time = 1000.0;
  config.seed = 5;
  // Queries stop at t = 900, so whatever is sent after that comes from a
  // publish or a refresh round.
  config.phases = {{900.0, 1e-9, 0}};
  struct Case {
    const char* name;
    double ttl, push_lead, refresh_interval;
    IndexVersion last_version;
  };
  // Publish period 500 puts version 3 on the horizon; a 250 s refresh
  // interval puts the fourth round there (and period 600 keeps publishes
  // off it).
  for (const Case& c : {Case{"publish", 600.0, 100.0, 0.0, 2},
                        Case{"refresh", 700.0, 100.0, 250.0, 2}}) {
    SCOPED_TRACE(c.name);
    config.ttl = c.ttl;
    config.push_lead = c.push_lead;
    config.faults.refresh_interval = c.refresh_interval;
    SimulationDriver driver(config);
    ASSERT_TRUE(driver.Init().ok());
    driver.RunUntil(999.0);
    const uint64_t sent = driver.recorder().delivery().total_sent();
    EXPECT_GT(sent, 0u);
    driver.RunToCompletion();
    EXPECT_EQ(driver.protocol().latest_version(), c.last_version);
    EXPECT_EQ(driver.recorder().delivery().total_sent(), sent);
    EXPECT_EQ(driver.engine().pending(), 0u);
  }
}

TEST(DriverTest, HostDrivenRejectsBadRate) {
  ExperimentConfig config = SmallConfig();
  config.update_mode = UpdateMode::kHostDriven;
  config.host_change_rate = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, UpdateModeParseRoundTrips) {
  for (UpdateMode mode : {UpdateMode::kTtlAligned, UpdateMode::kHostDriven}) {
    auto parsed = ParseUpdateMode(UpdateModeToString(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseUpdateMode("sometimes").ok());
}

TEST(ReplicatorTest, SeedsDiffer) {
  EXPECT_NE(Replicator::SeedForReplication(1, 0),
            Replicator::SeedForReplication(1, 1));
  EXPECT_NE(Replicator::SeedForReplication(1, 0),
            Replicator::SeedForReplication(2, 0));
}

TEST(ReplicatorTest, AggregatesRuns) {
  ExperimentConfig config = SmallConfig();
  config.num_nodes = 64;
  auto summary = Replicator::Run(config, 3);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->runs.size(), 3u);
  EXPECT_GT(summary->total_queries, 0u);
  EXPECT_GT(summary->cost.mean, 0.0);
}

TEST(ReplicatorTest, RejectsZeroReplications) {
  EXPECT_FALSE(Replicator::Run(SmallConfig(), 0).ok());
}

TEST(CompareSchemesTest, ProducesAllThree) {
  ExperimentConfig config = SmallConfig();
  config.num_nodes = 64;
  auto comparison = CompareSchemes(config, 2);
  ASSERT_TRUE(comparison.ok());
  EXPECT_GT(comparison->pcx.cost.mean, 0.0);
  EXPECT_GT(comparison->cup.cost.mean, 0.0);
  EXPECT_GT(comparison->dup.cost.mean, 0.0);
  EXPECT_GT(comparison->dup_cost_relative_to_pcx(), 0.0);
  EXPECT_GT(comparison->cup_cost_relative_to_pcx(), 0.0);
}

TEST(TableReportTest, RendersAlignedTable) {
  TableReport table("Title", {"a", "long-column"});
  table.AddRow({"1", "2"});
  table.AddSeparator();
  table.AddRow({"333", "4"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Title"), std::string::npos);
  EXPECT_NE(rendered.find("long-column"), std::string::npos);
  EXPECT_NE(rendered.find("| 333"), std::string::npos);
}

TEST(TableReportTest, Cells) {
  EXPECT_EQ(CiCell(1.25, 0.5), "1.250±0.500");
  EXPECT_EQ(PercentCell(0.423), "42.3%");
}

// --- Config key table -----------------------------------------------------

KeySchema WholeTable() { return {"test", AllConfigKeys(), {}}; }

util::ConfigMap Args(const std::map<std::string, std::string>& entries) {
  util::ConfigMap args;
  for (const auto& [key, value] : entries) args.Set(key, value);
  return args;
}

TEST(ConfigKeysTest, EveryKeyRejectsAMalformedValueAndNamesIt) {
  for (const ConfigKey& key : ConfigKeys()) {
    // Paths are free text; every other key has a grammar.
    if (key.name == "trace_out" || key.name == "wire_frame_log") continue;
    const std::string name(key.name);
    ExperimentConfig config;
    const util::Status status =
        ApplyKeys(WholeTable(), Args({{name, "1x@"}}), &config);
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_NE(status.message().find(name + "=1x@: "), std::string::npos)
        << status.message();
  }
}

TEST(ConfigKeysTest, RangeChecksNameTheKey) {
  ExperimentConfig config;
  for (const auto& [key, value] :
       std::map<std::string, std::string>{{"nodes", "1"},
                                          {"lambda", "0"},
                                          {"loss_rate", "1.5"},
                                          {"exit_fraction", "1"},
                                          {"wire_port", "65536"},
                                          {"audit_interval", "-1"},
                                          {"ttl", "inf"}}) {
    const util::Status status =
        ApplyKeys(WholeTable(), Args({{key, value}}), &config);
    EXPECT_FALSE(status.ok()) << key;
    EXPECT_NE(status.message().find(key + "=" + value), std::string::npos)
        << status.message();
  }
}

TEST(ConfigKeysTest, UnknownKeyIsRejectedWithTheAcceptedKeys) {
  ExperimentConfig config;
  const util::Status status =
      ApplyKeys(WholeTable(), Args({{"bogus_key", "1"}}), &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(
      status.message().find("test does not accept key \"bogus_key\""),
      std::string::npos);
  EXPECT_NE(status.message().find("network size n [4096]"),
            std::string::npos)
      << status.message();
}

TEST(ConfigKeysTest, TableKeyOutsideTheSchemaIsRejected) {
  const KeySchema schema{"narrow mode", {"nodes"}, {}};
  ExperimentConfig config;
  const util::Status status =
      ApplyKeys(schema, Args({{"audit", "paranoid"}}), &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(
      status.message().find("narrow mode does not accept key \"audit\""),
      std::string::npos)
      << status.message();
  EXPECT_EQ(config.audit_mode, audit::AuditMode::kOff);
}

TEST(ConfigKeysTest, ToolDefaultsSurviveAbsentKeys) {
  ExperimentConfig config;
  config.num_nodes = 64;
  config.faults.retry_max = 3;
  ASSERT_TRUE(
      ApplyKeys(WholeTable(), Args({{"ttl", "60"}}), &config).ok());
  EXPECT_EQ(config.num_nodes, 64u);
  EXPECT_EQ(config.faults.retry_max, 3u);
  EXPECT_EQ(config.ttl, 60.0);
}

TEST(ConfigKeysTest, ToolKeysShadowTableRowsAndAreChecked) {
  const KeySchema schema{
      "tool",
      {"scheme", "nodes"},
      {{"scheme", "scheme or all"},
       {"reps", "reps", ValueKind::kPositiveCount}}};
  ExperimentConfig config;
  EXPECT_TRUE(ApplyKeys(schema, Args({{"scheme", "all"}}), &config).ok());
  EXPECT_EQ(config.scheme, Scheme::kDup);  // Left to the tool.
  const util::Status status =
      ApplyKeys(schema, Args({{"reps", "0"}}), &config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("reps=0"), std::string::npos);
}

TEST(ConfigKeysTest, EnvAliasFillsOnlyAbsentKeys) {
  ASSERT_EQ(::setenv("DUP_AUDIT", "checkpoints", 1), 0);
  util::ConfigMap args;
  ASSERT_TRUE(ResolveEnvAliases(WholeTable(), &args).ok());
  EXPECT_EQ(args.GetString("audit", ""), "checkpoints");
  util::ConfigMap explicit_args = Args({{"audit", "paranoid"}});
  ASSERT_TRUE(ResolveEnvAliases(WholeTable(), &explicit_args).ok());
  EXPECT_EQ(explicit_args.GetString("audit", ""), "paranoid");
  // A schema that does not accept the key ignores its alias.
  util::ConfigMap narrow;
  ASSERT_TRUE(ResolveEnvAliases({"narrow", {"nodes"}, {}}, &narrow).ok());
  EXPECT_FALSE(narrow.Has("audit"));
  ASSERT_EQ(::unsetenv("DUP_AUDIT"), 0);
}

TEST(ConfigKeysTest, MalformedEnvAliasFailsAndNamesTheVariable) {
  ASSERT_EQ(::setenv("DUP_AUDIT_INTERVAL", "abc", 1), 0);
  util::ConfigMap args;
  const util::Status status = ResolveEnvAliases(WholeTable(), &args);
  ASSERT_EQ(::unsetenv("DUP_AUDIT_INTERVAL"), 0);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("DUP_AUDIT_INTERVAL=abc"),
            std::string::npos)
      << status.message();
  EXPECT_FALSE(args.Has("audit_interval"));
}

TEST(ConfigKeysTest, ManifestReplaysToTheSameConfig) {
  // Every key set away from its default.
  const std::map<std::string, std::string> values = {
      {"scheme", "cup"},          {"topology", "chord"},
      {"nodes", "777"},           {"degree", "7"},
      {"lambda", "2.5"},
      {"arrival", "pareto"},      {"alpha", "1.05"},
      {"theta", "1.25"},          {"c", "9"},
      {"fwd", "0"},               {"percopy", "off"},
      {"passrep", "yes"},         {"ttl", "1800"},
      {"lead", "30"},             {"updates", "host-driven"},
      {"change_rate", "0.1"},     {"hoplat", "0.05"},
      {"warmup", "100"},          {"measure", "2000"},
      {"shortcut", "false"},      {"piggyback", "true"},
      {"max_arity", "5"},         {"cup_policy", "investment-return"},
      {"demand_window", "1200"},  {"cup_enter", "3"},
      {"dup_enter", "20"},        {"exit_fraction", "0.25"},
      {"dwell", "4"},             {"join", "0.01"},
      {"leave", "0.02"},          {"fail", "0.03"},
      {"detect", "15"},           {"loss_rate", "0.05"},
      {"jitter", "0.5"},          {"retry_max", "5"},
      {"retry_timeout", "1.5"},   {"retry_backoff", "3"},
      {"refresh_interval", "300"}, {"seed", "18446744073709551615"},
      {"scheduler", "heap"},      {"transport", "wire"},
      {"wire_port", "20001"},     {"wire_pace", "400"},
      {"wire_frame_log", "run.frames"}, {"trace_out", "run.jsonl"},
      {"trace_sample", "2,3,4,5"}, {"audit", "paranoid"},
      {"audit_interval", "120"}};
  ASSERT_EQ(values.size(), ConfigKeys().size());
  ExperimentConfig config;
  ASSERT_TRUE(ApplyKeys(WholeTable(), Args(values), &config).ok());
  const util::JsonValue json = ConfigToJson(config);
  const util::JsonValue defaults = ConfigToJson(ExperimentConfig());
  for (const ConfigKey& key : ConfigKeys()) {
    ASSERT_NE(json.Find(key.name), nullptr) << key.name;
    EXPECT_NE(*json.Find(key.name), *defaults.Find(key.name)) << key.name;
  }

  util::ConfigMap replay;
  for (const auto& [name, value] : json.AsObject()) {
    replay.Set(name, value.is_string() ? value.AsString() : value.Dump());
  }
  // ToString names every non-default key, so it replays too.
  for (const ConfigKey& key : ConfigKeys()) {
    EXPECT_NE(config.ToString().find(std::string(key.name) + "=" +
                                     key.Format(config)),
              std::string::npos)
        << key.name;
  }
  ExperimentConfig replayed;
  ASSERT_TRUE(ApplyKeys(WholeTable(), replay, &replayed).ok());
  EXPECT_EQ(ConfigToJson(replayed), json);
  EXPECT_EQ(replayed.seed, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(replayed.host_change_rate, 0.1);
  EXPECT_EQ(replayed.trace_sample, "2,3,4,5");
}

}  // namespace
}  // namespace dupnet::experiment
