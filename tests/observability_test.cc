// Observability layer: run manifests, JSONL trace export and the benchdiff
// comparison engine (docs/observability.md).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/dup_protocol.h"
#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "experiment/replicator.h"
#include "metrics/bench_compare.h"
#include "metrics/run_manifest.h"
#include "net/message.h"
#include "trace/jsonl_writer.h"
#include "test_util.h"
#include "util/json.h"

namespace dupnet {
namespace {

// --------------------------------------------------------------------------
// RunManifest
// --------------------------------------------------------------------------

TEST(RunManifestTest, RoundTripsThroughJson) {
  experiment::ExperimentConfig config;
  config.scheme = experiment::Scheme::kCup;
  config.num_nodes = 512;
  config.lambda = 3.5;
  config.seed = 0xDEADBEEFCAFEBABEull;  // Above 2^53: doubles would lose it.

  metrics::RunManifest manifest =
      experiment::MakeRunManifest("dupsim", "fig4", config, /*jobs=*/4);
  manifest.wall_seconds = 12.25;

  auto parsed_json = util::JsonValue::Parse(manifest.ToJsonString());
  ASSERT_TRUE(parsed_json.ok()) << parsed_json.status().ToString();
  auto parsed = metrics::RunManifest::FromJson(*parsed_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->schema_version, metrics::RunManifest::kSchemaVersion);
  EXPECT_EQ(parsed->tool, "dupsim");
  EXPECT_EQ(parsed->exhibit, "fig4");
  EXPECT_EQ(parsed->git_commit, manifest.git_commit);
  EXPECT_EQ(parsed->seed, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(parsed->jobs, 4u);
  EXPECT_EQ(parsed->hardware_concurrency, manifest.hardware_concurrency);
  EXPECT_DOUBLE_EQ(parsed->wall_seconds, 12.25);
  EXPECT_EQ(parsed->config, manifest.config);

  const util::JsonValue* scheme = parsed->config.Find("scheme");
  ASSERT_NE(scheme, nullptr);
  EXPECT_EQ(scheme->AsString(), "cup");
  const util::JsonValue* nodes = parsed->config.Find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->AsDouble(), 512.0);
}

TEST(RunManifestTest, EnvironmentOverridesCompiledCommit) {
  ASSERT_EQ(::setenv("DUP_GIT_COMMIT", "feedfacef00d", 1), 0);
  EXPECT_EQ(metrics::RunManifest::CurrentGitCommit(), "feedfacef00d");
  ASSERT_EQ(::unsetenv("DUP_GIT_COMMIT"), 0);
  EXPECT_FALSE(metrics::RunManifest::CurrentGitCommit().empty());
}

TEST(RunManifestTest, FromJsonRejectsMissingOrMalformedFields) {
  auto manifest = metrics::RunManifest::Create("t", "e");
  util::JsonValue json = manifest.ToJson();
  json.AsObject().erase("git_commit");
  EXPECT_FALSE(metrics::RunManifest::FromJson(json).ok());

  json = manifest.ToJson();
  json.Set("seed", "12x");  // Trailing garbage.
  EXPECT_FALSE(metrics::RunManifest::FromJson(json).ok());

  EXPECT_FALSE(metrics::RunManifest::FromJson(util::JsonValue(3.0)).ok());
}

// --------------------------------------------------------------------------
// JSONL trace writer
// --------------------------------------------------------------------------

net::Message PushMessage(NodeId from, NodeId to) {
  net::Message message;
  message.type = net::MessageType::kPush;
  message.from = from;
  message.to = to;
  message.subject = 7;
  message.version = 3;
  message.hops = 2;
  return message;
}

TEST(JsonlTraceWriterTest, FormatParseRoundTrip) {
  const net::Message message = PushMessage(4, 9);
  const std::string line = trace::JsonlTraceWriter::FormatLine(
      123.5, trace::EventKind::kDeliver, message);
  auto event = trace::JsonlTraceWriter::ParseLine(line);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_DOUBLE_EQ(event->time, 123.5);
  EXPECT_EQ(event->kind, trace::EventKind::kDeliver);
  EXPECT_EQ(event->type, net::MessageType::kPush);
  EXPECT_EQ(event->from, 4u);
  EXPECT_EQ(event->to, 9u);
  EXPECT_EQ(event->subject, 7u);
  EXPECT_EQ(event->version, 3u);
  EXPECT_EQ(event->hops, 2u);
}

TEST(JsonlTraceWriterTest, ParseLineSkipsTrailerAndBlankLines) {
  EXPECT_TRUE(trace::JsonlTraceWriter::ParseLine("").status().IsNotFound());
  EXPECT_TRUE(trace::JsonlTraceWriter::ParseLine("  \t ")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(trace::JsonlTraceWriter::ParseLine("#trace request=1/1")
                  .status()
                  .IsNotFound());
  EXPECT_FALSE(trace::JsonlTraceWriter::ParseLine("{\"t\":1}").ok());
  EXPECT_FALSE(trace::JsonlTraceWriter::ParseLine("not json").ok());
}

TEST(JsonlTraceWriterTest, CounterSamplingKeepsEveryNth) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  trace::JsonlTraceWriter writer(stream, trace::TraceSampling::Every(3),
                                 /*owns_stream=*/true);
  for (int i = 0; i < 10; ++i) writer.OnSend(1.0 * i, PushMessage(0, 1));
  EXPECT_EQ(writer.events_seen(), 10u);
  EXPECT_EQ(writer.events_written(), 4u);  // Events 0, 3, 6, 9.
}

TEST(JsonlTraceWriterTest, ZeroDropsAClassEntirely) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  auto sampling = trace::TraceSampling::Parse("1,1,0,1");
  ASSERT_TRUE(sampling.ok());
  trace::JsonlTraceWriter writer(stream, *sampling, /*owns_stream=*/true);
  for (int i = 0; i < 5; ++i) writer.OnSend(1.0 * i, PushMessage(0, 1));
  net::Message request;
  request.type = net::MessageType::kRequest;
  writer.OnDeliver(9.0, request);
  EXPECT_EQ(writer.events_seen(), 6u);
  EXPECT_EQ(writer.events_written(), 1u);  // Only the request survived.
}

// Every event line `stream` holds, parsed back (comment lines skipped).
std::vector<trace::TraceEvent> ReadEvents(std::FILE* stream) {
  std::fflush(stream);
  std::rewind(stream);
  std::vector<trace::TraceEvent> events;
  char line[512];
  while (std::fgets(line, sizeof line, stream) != nullptr) {
    std::string_view text(line);
    if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
    auto event = trace::JsonlTraceWriter::ParseLine(text);
    if (event.ok()) events.push_back(*event);
  }
  return events;
}

TEST(JsonlTraceWriterTest, ObservesLiveProtocolTraffic) {
  testing::ProtocolHarness harness(testing::MakePaperTree());
  core::DupProtocol protocol(&harness.network(), &harness.tree(),
                             proto::ProtocolOptions());
  harness.Attach(&protocol);
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  trace::JsonlTraceWriter writer(stream, trace::TraceSampling(),
                                 /*owns_stream=*/true);
  harness.network().set_observer(&writer);

  protocol.OnRootPublish(1, 3600.0);
  protocol.ForceSubscribe(6);
  harness.Drain();
  protocol.OnRootPublish(2, 7200.0);
  harness.Drain();

  size_t subscribes = 0, pushes = 0, sends = 0, delivers = 0, drops = 0;
  for (const trace::TraceEvent& event : ReadEvents(stream)) {
    subscribes += event.type == net::MessageType::kSubscribe ? 1 : 0;
    pushes += event.type == net::MessageType::kPush ? 1 : 0;
    sends += event.kind == trace::EventKind::kSend ? 1 : 0;
    delivers += event.kind == trace::EventKind::kDeliver ? 1 : 0;
    drops += event.kind == trace::EventKind::kDrop ? 1 : 0;
  }
  // The subscribe climbed 4 hops: 4 sends + 4 delivers.
  EXPECT_EQ(subscribes, 8u);
  // The direct push: 1 send + 1 deliver.
  EXPECT_EQ(pushes, 2u);
  // Every send has a matching deliver (nothing dropped).
  EXPECT_EQ(sends, delivers);
  EXPECT_EQ(drops, 0u);
}

TEST(JsonlTraceWriterTest, RecordsDrops) {
  testing::ProtocolHarness harness(testing::MakePaperTree());
  core::DupProtocol protocol(&harness.network(), &harness.tree(),
                             proto::ProtocolOptions());
  harness.Attach(&protocol);
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  trace::JsonlTraceWriter writer(stream, trace::TraceSampling(),
                                 /*owns_stream=*/true);
  harness.network().set_observer(&writer);

  harness.network().SetNodeDown(6, true);
  harness.network().Send(PushMessage(1, 6));
  harness.Drain();
  const std::vector<trace::TraceEvent> events = ReadEvents(stream);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().kind, trace::EventKind::kDrop);
  EXPECT_EQ(events.front().to, 6u);
}

TEST(TraceSamplingTest, ParseAcceptsUniformAndPerClassForms) {
  auto uniform = trace::TraceSampling::Parse("4");
  ASSERT_TRUE(uniform.ok());
  for (uint32_t e : uniform->every) EXPECT_EQ(e, 4u);

  auto per_class = trace::TraceSampling::Parse("1, 2, 0, 8");
  ASSERT_TRUE(per_class.ok());
  EXPECT_EQ(per_class->every[0], 1u);
  EXPECT_EQ(per_class->every[1], 2u);
  EXPECT_EQ(per_class->every[2], 0u);
  EXPECT_EQ(per_class->every[3], 8u);

  EXPECT_FALSE(trace::TraceSampling::Parse("").ok());
  EXPECT_FALSE(trace::TraceSampling::Parse("-1").ok());
  EXPECT_FALSE(trace::TraceSampling::Parse("1,2").ok());
  EXPECT_FALSE(trace::TraceSampling::Parse("a,b,c,d").ok());
}

// --------------------------------------------------------------------------
// Driver / replicator integration
// --------------------------------------------------------------------------

experiment::ExperimentConfig SmallConfig() {
  experiment::ExperimentConfig config;
  config.num_nodes = 64;
  config.lambda = 2.0;
  config.warmup_time = 0.0;
  config.measure_time = 1200.0;
  return config;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::vector<std::string> lines;
  if (file == nullptr) return lines;
  std::string current;
  int c = 0;
  while ((c = std::fgetc(file)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) lines.push_back(current);
  std::fclose(file);
  return lines;
}

TEST(TraceIntegrationTest, DriverStreamsParsableTraceWithTrailer) {
  const std::string path = ::testing::TempDir() + "/dup_trace_driver.jsonl";
  experiment::ExperimentConfig config = SmallConfig();
  config.trace_path = path;

  experiment::SimulationDriver driver(config);
  ASSERT_TRUE(driver.Init().ok());
  driver.RunToCompletion();
  ASSERT_NE(driver.trace_writer(), nullptr);
  const uint64_t written = driver.trace_writer()->events_written();
  driver.trace_writer()->Finish();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().rfind("#trace", 0), 0u) << lines.back();
  uint64_t parsed = 0;
  for (const std::string& line : lines) {
    auto event = trace::JsonlTraceWriter::ParseLine(line);
    if (event.status().IsNotFound()) continue;  // Trailer.
    ASSERT_TRUE(event.ok()) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, written);
  EXPECT_GT(parsed, 0u);
  std::remove(path.c_str());
}

TEST(TraceIntegrationTest, SampledTracingDoesNotPerturbMetrics) {
  const experiment::ExperimentConfig plain = SmallConfig();
  auto baseline = experiment::SimulationDriver::Run(plain);
  ASSERT_TRUE(baseline.ok());

  experiment::ExperimentConfig traced = SmallConfig();
  traced.trace_path = ::testing::TempDir() + "/dup_trace_determinism.jsonl";
  traced.trace_sample = "10,0,1,2";  // Uneven on purpose: still no RNG.
  auto with_trace = experiment::SimulationDriver::Run(traced);
  ASSERT_TRUE(with_trace.ok());

  EXPECT_EQ(baseline->queries, with_trace->queries);
  EXPECT_EQ(baseline->avg_latency_hops, with_trace->avg_latency_hops);
  EXPECT_EQ(baseline->avg_cost_hops, with_trace->avg_cost_hops);
  EXPECT_EQ(baseline->local_hit_rate, with_trace->local_hit_rate);
  EXPECT_EQ(baseline->stale_rate, with_trace->stale_rate);
  EXPECT_EQ(baseline->hops.total(), with_trace->hops.total());
  EXPECT_EQ(baseline->latency_p95, with_trace->latency_p95);
  EXPECT_EQ(baseline->latency_p99, with_trace->latency_p99);
  std::remove(traced.trace_path.c_str());
}

TEST(TraceIntegrationTest, ReplicatorDerivesUniquePerRunPaths) {
  const std::string base = ::testing::TempDir() + "/dup_trace_sweep.jsonl";
  experiment::ExperimentConfig config = SmallConfig();
  config.measure_time = 600.0;
  config.trace_path = base;

  auto sweep = experiment::RunSweep({config}, /*replications=*/2, /*jobs=*/2);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();

  const std::string dir = ::testing::TempDir();
  const std::string rep0 = dir + "/dup_trace_sweep.p0.r0.jsonl";
  const std::string rep1 = dir + "/dup_trace_sweep.p0.r1.jsonl";
  for (const std::string& path : {rep0, rep1}) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path << " was not written";
    if (file != nullptr) std::fclose(file);
    std::remove(path.c_str());
  }
}

TEST(ExperimentConfigTest, ValidateRejectsBadTraceSampling) {
  experiment::ExperimentConfig config;
  config.trace_sample = "1,2";
  EXPECT_FALSE(config.Validate().ok());
  config.trace_sample = "nope";
  EXPECT_FALSE(config.Validate().ok());
  config.trace_sample = "0";
  EXPECT_TRUE(config.Validate().ok());
}

// --------------------------------------------------------------------------
// benchdiff comparison engine
// --------------------------------------------------------------------------

util::JsonValue BenchDoc(double events_per_second, double wall_seconds) {
  util::JsonValue manifest = util::JsonValue::MakeObject();
  manifest.Set("schema_version", metrics::RunManifest::kSchemaVersion);
  util::JsonValue inner = util::JsonValue::MakeObject();
  inner.Set("events_per_second", events_per_second);
  inner.Set("wall_seconds", wall_seconds);
  inner.Set("pool_slots", 128);  // Informational: never gated.
  util::JsonValue doc = util::JsonValue::MakeObject();
  doc.Set("manifest", std::move(manifest));
  doc.Set("engine", std::move(inner));
  return doc;
}

TEST(BenchCompareTest, UnchangedInputsPass) {
  auto report =
      metrics::CompareBenchJson(BenchDoc(1e6, 2.0), BenchDoc(1e6, 2.0));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->regressions, 0u);
  EXPECT_EQ(report->improvements, 0u);
  EXPECT_FALSE(report->deltas.empty());
}

TEST(BenchCompareTest, SmallDriftStaysInsideThreshold) {
  auto report =
      metrics::CompareBenchJson(BenchDoc(1e6, 2.0), BenchDoc(0.9e6, 2.2));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
}

TEST(BenchCompareTest, ThroughputDropIsARegression) {
  auto report =
      metrics::CompareBenchJson(BenchDoc(1e6, 2.0), BenchDoc(0.5e6, 2.0));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->regressions, 1u);
}

TEST(BenchCompareTest, WallClockDropIsAnImprovement) {
  auto report =
      metrics::CompareBenchJson(BenchDoc(1e6, 2.0), BenchDoc(1e6, 1.0));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  EXPECT_EQ(report->improvements, 1u);
}

TEST(BenchCompareTest, InformationalMetricsAreNeverGated) {
  util::JsonValue baseline = BenchDoc(1e6, 2.0);
  util::JsonValue current = BenchDoc(1e6, 2.0);
  current.AsObject().at("engine").Set("pool_slots", 4096);
  auto report = metrics::CompareBenchJson(baseline, current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToString();
}

TEST(BenchCompareTest, ThresholdIsConfigurable) {
  metrics::CompareOptions strict;
  strict.threshold = 0.05;
  auto report = metrics::CompareBenchJson(BenchDoc(1e6, 2.0),
                                          BenchDoc(0.9e6, 2.0), strict);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(BenchCompareTest, SampleArraysCompareThroughConfidenceIntervals) {
  const auto doc_with_samples = [](std::vector<double> samples) {
    util::JsonValue array = util::JsonValue::MakeArray();
    for (double s : samples) array.Append(s);
    util::JsonValue doc = util::JsonValue::MakeObject();
    doc.Set("latency_samples", std::move(array));
    return doc;
  };
  // Wildly overlapping CIs: the mean moved > threshold but inside noise.
  auto noisy = metrics::CompareBenchJson(
      doc_with_samples({1.0, 9.0, 2.0, 8.0}),
      doc_with_samples({4.0, 12.0, 5.0, 11.0}));
  ASSERT_TRUE(noisy.ok());
  EXPECT_TRUE(noisy->ok()) << noisy->ToString();

  // Tight CIs far apart: a real latency regression.
  auto real = metrics::CompareBenchJson(
      doc_with_samples({1.0, 1.01, 0.99, 1.0}),
      doc_with_samples({2.0, 2.01, 1.99, 2.0}));
  ASSERT_TRUE(real.ok());
  EXPECT_FALSE(real->ok());
}

TEST(BenchCompareTest, NewMetricsInOnlyOneFileAreIgnored) {
  util::JsonValue current = BenchDoc(1e6, 2.0);
  current.Set("brand_new_latency", 42.0);
  auto report = metrics::CompareBenchJson(BenchDoc(1e6, 2.0), current);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
}

TEST(BenchCompareTest, SchemaVersionMismatchIsAnError) {
  util::JsonValue current = BenchDoc(1e6, 2.0);
  current.AsObject().at("manifest").Set(
      "schema_version", metrics::RunManifest::kSchemaVersion + 1);
  auto report = metrics::CompareBenchJson(BenchDoc(1e6, 2.0), current);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace dupnet
