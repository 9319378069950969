// perfbench: the repository benchmark's measuring program (see README.md).
//
//   perfbench --workload <paper_1m|multikey_lossy|wire_loopback>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every number is taken from outside the simulator: the program calls the
// public API of each module (sim::Engine, the OverlayNetwork sink, observer
// and transport seams, net::wire, workload::ZipfNodeSelector,
// topo::TreeGenerator, audit) and reads its public counters. It prints one
// "info" JSON line and, last, one result JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Failed correctness checks are reported on stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/realtime_runner.h"
#include "ledger.h"
#include "multikey/simulation.h"
#include "net/message.h"
#include "net/transport.h"
#include "net/udp_transport.h"
#include "net/wire.h"
#include "topo/tree_generator.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/zipf_selector.h"

namespace {

using namespace dupnet;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

/// Process CPU time, user + system, in seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

double CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double Median(std::vector<double> values) {
  return perfbench::Percentile(&values, 50.0);
}

/// Bitwise equality of every field two RunMetrics snapshots expose.
bool SameMetrics(const metrics::RunMetrics& a, const metrics::RunMetrics& b) {
  auto same_double = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  };
  return a.queries == b.queries && a.queries_issued == b.queries_issued &&
         same_double(a.avg_latency_hops, b.avg_latency_hops) &&
         same_double(a.avg_cost_hops, b.avg_cost_hops) &&
         same_double(a.local_hit_rate, b.local_hit_rate) &&
         same_double(a.stale_rate, b.stale_rate) &&
         same_double(a.delivery_ratio, b.delivery_ratio) &&
         std::memcmp(&a.hops, &b.hops, sizeof(a.hops)) == 0 &&
         std::memcmp(&a.delivery, &b.delivery, sizeof(a.delivery)) == 0 &&
         a.latency_p50 == b.latency_p50 && a.latency_p95 == b.latency_p95 &&
         a.latency_p99 == b.latency_p99 && a.latency_max == b.latency_max &&
         a.local_hits == b.local_hits && a.stale_serves == b.stale_serves;
}

/// FNV-1a digest of the counters above, printed so runs of one seed can be
/// compared by eye across invocations.
uint64_t MetricsDigest(const metrics::RunMetrics& m) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
  };
  mix(&m.queries, sizeof(m.queries));
  mix(&m.avg_latency_hops, sizeof(m.avg_latency_hops));
  mix(&m.avg_cost_hops, sizeof(m.avg_cost_hops));
  mix(&m.hops, sizeof(m.hops));
  mix(&m.delivery, sizeof(m.delivery));
  mix(&m.local_hits, sizeof(m.local_hits));
  mix(&m.stale_serves, sizeof(m.stale_serves));
  return h;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Collects metrics, info fields and check outcomes; prints the two lines.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!Check(std::isfinite(value), name + " is finite")) value = 0.0;
    metrics_[name] = {value, unit};
  }
  /// A per-layer metric this workload does not exercise: printed as 0 and
  /// listed under info.not_applicable.
  void NotApplicable(const std::string& name, const std::string& unit) {
    Metric(name, 0.0, unit);
    not_applicable_.push_back(name);
  }
  void Info(const std::string& key, const std::string& json_value) {
    info_[key] = json_value;
  }
  void Info(const std::string& key, double value) {
    info_[key] = util::StrFormat("%.17g", value);
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// A correctness check; a failure marks the run incorrect.
  bool Check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }

  void Print() const {
    std::string info = "{\"info\": {";
    bool first = true;
    for (const auto& [key, value] : info_) {
      info += util::StrFormat("%s\"%s\": %s", first ? "" : ", ", key.c_str(),
                              value.c_str());
      first = false;
    }
    info += util::StrFormat("%s\"not_applicable\": [", first ? "" : ", ");
    for (size_t i = 0; i < not_applicable_.size(); ++i) {
      info += util::StrFormat("%s\"%s\"", i ? ", " : "",
                              not_applicable_[i].c_str());
    }
    info += "]}}";
    std::printf("%s\n", info.c_str());

    std::string out = util::StrFormat(
        "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
        ", \"metrics\": {",
        correct_ && failed_ == 0 ? "true" : "false", attempted_, failed_);
    first = true;
    for (const auto& [name, metric] : metrics_) {
      out += util::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             first ? "" : ", ", name.c_str(), metric.value,
                             metric.unit.c_str());
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> not_applicable_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// --- Seams: observer, sink and transport wrappers --------------------------

/// Observer on the overlay network: times frames from send to delivery with
/// a FrameMatcher, counts acks, optionally captures frames for the codec
/// replay and samples the realtime pacing lag.
class FrameClock : public net::MessageObserver {
 public:
  /// Times one send in `sample_every` (counter-based, no RNG).
  explicit FrameClock(uint64_t sample_every) : sample_every_(sample_every) {}

  void set_capture(size_t max_frames) { capture_max_ = max_frames; }
  /// Samples wall * pace - engine time at each send (realtime runs).
  void set_pacing(const sim::Engine* engine, double pace, int64_t start_ns) {
    engine_ = engine;
    pace_ = pace;
    start_ns_ = start_ns;
  }

  void OnSend(sim::SimTime, const net::Message& message) override {
    ++sends_;
    if (message.type == net::MessageType::kAck) ++acks_;
    if (sends_ % sample_every_ != 0) return;
    const int64_t now = NowNs();
    matcher_.OnSend(message, now);
    if (captured_.size() < capture_max_) captured_.push_back(message);
    if (engine_ != nullptr) {
      const double lag_s = (now - start_ns_) * 1e-9 - engine_->Now() / pace_;
      lag_ms_.push_back(lag_s * 1e3);
    }
    if (sends_ % (sample_every_ * 4096) == 0) {
      matcher_.Expire(now, kMaxAgeNs);
    }
  }
  void OnDeliver(sim::SimTime, const net::Message& message) override {
    if (auto latency = matcher_.OnDeliver(message, NowNs())) {
      latency_us_.push_back(*latency * 1e-3);
    }
  }
  void OnDrop(sim::SimTime, const net::Message& message) override {
    matcher_.OnDrop(message);
  }

  /// Sends still unmatched once the run is over are counted lost.
  void Finish() { matcher_.Expire(NowNs(), 0); }

  std::vector<double>& latency_us() { return latency_us_; }
  std::vector<double>& lag_ms() { return lag_ms_; }
  const std::vector<net::Message>& captured() const { return captured_; }
  const perfbench::FrameMatcher& matcher() const { return matcher_; }
  uint64_t acks() const { return acks_; }

 private:
  static constexpr int64_t kMaxAgeNs = 10'000'000'000;  // 10 s wall.
  uint64_t sample_every_;
  uint64_t sends_ = 0;
  uint64_t acks_ = 0;
  perfbench::FrameMatcher matcher_;
  std::vector<double> latency_us_;
  std::vector<double> lag_ms_;
  size_t capture_max_ = 0;
  std::vector<net::Message> captured_;
  const sim::Engine* engine_ = nullptr;
  double pace_ = 1.0;
  int64_t start_ns_ = 0;
};

/// Transport decorator timing each Ship() (net.udp.ship_ns).
class TimedTransport : public net::Transport {
 public:
  explicit TimedTransport(net::Transport* inner) : inner_(inner) {}
  std::string_view name() const override { return inner_->name(); }
  bool IsLocal(NodeId node) const override { return inner_->IsLocal(node); }
  util::Status Ship(const net::Message& message) override {
    const int64_t start = NowNs();
    util::Status status = inner_->Ship(message);
    total_ns_ += NowNs() - start;
    ++ships_;
    return status;
  }
  int64_t total_ns() const { return total_ns_; }
  uint64_t ships() const { return ships_; }

 private:
  net::Transport* inner_;
  int64_t total_ns_ = 0;
  uint64_t ships_ = 0;
};

/// MessageSink wrapper timing protocol dispatch per hop class, minus the
/// transport time nested inside it (protocol replies shipped on the wire).
class TimedSink : public net::MessageSink {
 public:
  TimedSink(net::MessageSink* inner, const TimedTransport* nested)
      : inner_(inner), nested_(nested) {}
  void OnMessage(const net::Message& message) override {
    const int64_t nested_before = nested_ ? nested_->total_ns() : 0;
    const int64_t start = NowNs();
    inner_->OnMessage(message);
    const int64_t span = NowNs() - start;
    const int64_t nested = nested_ ? nested_->total_ns() - nested_before : 0;
    const int cls = static_cast<int>(net::HopClassOf(message.type));
    self_ns_[cls] += span - nested;
    span_ns_ += span;
    ++count_[cls];
  }
  int64_t span_ns() const { return span_ns_; }
  int64_t self_ns() const {
    return std::accumulate(std::begin(self_ns_), std::end(self_ns_),
                           int64_t{0});
  }
  double MeanNs(metrics::HopClass cls) const {
    const int i = static_cast<int>(cls);
    return count_[i] ? static_cast<double>(self_ns_[i]) / count_[i] : 0.0;
  }

 private:
  net::MessageSink* inner_;
  const TimedTransport* nested_;
  int64_t self_ns_[metrics::kNumHopClasses] = {};
  uint64_t count_[metrics::kNumHopClasses] = {};
  int64_t span_ns_ = 0;
};

// --- Layer probes shared by the workloads ----------------------------------

/// ns per ZipfNodeSelector::Sample at `n` nodes (median of 3 batches).
double ZipfSampleNs(size_t n, double theta, uint64_t seed) {
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  util::Rng perm(seed);
  workload::ZipfNodeSelector selector(std::move(nodes), theta, &perm);
  util::Rng rng(seed + 1);
  constexpr int kSamples = 1 << 21;
  std::vector<double> batches;
  uint64_t sink = 0;
  for (int batch = 0; batch < 3; ++batch) {
    const int64_t start = NowNs();
    for (int i = 0; i < kSamples; ++i) sink += selector.Sample(&rng);
    batches.push_back(static_cast<double>(NowNs() - start) / kSamples);
  }
  if (sink == 1) std::fprintf(stderr, "\n");  // Keeps the loop observable.
  return Median(batches);
}

/// Seconds per TreeGenerator::Generate at `n` nodes (median of 3).
double TreeGenerateSeconds(size_t n, int max_degree, uint64_t seed) {
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    util::Rng rng(seed + rep);
    const int64_t start = NowNs();
    auto tree = topo::TreeGenerator::Generate({n, max_degree}, &rng);
    times.push_back(SecondsSince(start));
    if (!tree.ok()) return 0.0;
  }
  return Median(times);
}

/// Replays captured frames through wire::Serialize and wire::Parse; reports
/// ns per frame for each and the mean encoded size.
void ReplayWire(const std::vector<net::Message>& frames, Report* report) {
  if (frames.empty()) {
    report->Check(false, "no frames captured for the codec replay");
    return;
  }
  std::vector<std::vector<uint8_t>> encoded(frames.size());
  double bytes = 0.0;
  for (size_t i = 0; i < frames.size(); ++i) {
    report->Check(net::wire::Serialize(frames[i], &encoded[i]).ok(),
                  "captured frame serializes");
    bytes += static_cast<double>(encoded[i].size());
  }
  std::vector<double> ser_ns, parse_ns;
  std::vector<uint8_t> scratch;
  net::Message decoded;
  bool round_trip = true;
  const int passes = std::max<int>(5, static_cast<int>(200000 / frames.size()));
  for (int pass = 0; pass < passes; ++pass) {
    int64_t start = NowNs();
    for (const net::Message& m : frames) {
      (void)net::wire::Serialize(m, &scratch);
    }
    ser_ns.push_back(static_cast<double>(NowNs() - start) / frames.size());
    start = NowNs();
    for (const auto& bytes_of : encoded) {
      round_trip &=
          net::wire::Parse(bytes_of.data(), bytes_of.size(), &decoded).ok();
    }
    parse_ns.push_back(static_cast<double>(NowNs() - start) / frames.size());
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    round_trip &= net::wire::Parse(encoded[i].data(), encoded[i].size(),
                                   &decoded).ok() &&
                  decoded == frames[i];
  }
  report->Check(round_trip, "captured frames round-trip through net::wire");
  report->Metric("net.wire.serialize_ns", Median(ser_ns), "ns");
  report->Metric("net.wire.parse_ns", Median(parse_ns), "ns");
  report->Metric("net.wire.bytes_per_frame", bytes / frames.size(), "B");
  report->Info("wire_replay_frames", static_cast<double>(frames.size()));
}

void ReportHopsPerQuery(const metrics::RunMetrics& m, uint64_t acks,
                        Report* report) {
  const double q = m.queries ? static_cast<double>(m.queries) : 1.0;
  report->Metric("net.hops.request", m.hops.request() / q, "hops/query");
  report->Metric("net.hops.reply", m.hops.reply() / q, "hops/query");
  report->Metric("net.hops.push", m.hops.push() / q, "hops/query");
  report->Metric("net.hops.control", m.hops.control() / q, "hops/query");
  report->Metric("net.hops.ack", acks / q, "hops/query");
}

void ReportDeliveryAndCache(const metrics::RunMetrics& m, Report* report) {
  report->Metric("net.retries", m.delivery.total_retries(), "count");
  report->Metric("net.giveups", m.delivery.total_giveups(), "count");
  report->Metric("net.delivery_ratio", m.delivery_ratio, "ratio");
  report->Metric("cache.local_hit_rate", m.local_hit_rate, "ratio");
  report->Metric("cache.stale_rate", m.stale_rate, "ratio");
}

void ReportQueryMetrics(const metrics::RunMetrics& m, Report* report) {
  report->Metric("query_latency_hops", m.avg_latency_hops, "hops");
  report->Metric("query_cost_hops", m.avg_cost_hops, "hops");
  report->Info("run_metrics_digest",
               util::StrFormat("\"%016" PRIx64 "\"", MetricsDigest(m)));
  report->Info("queries", static_cast<double>(m.queries));
}

/// Frame-latency samples reported as median and p99, with the sample count
/// and the highest percentile the count supports.
void ReportFrameLatency(std::vector<double>* samples, Report* report) {
  const size_t n = samples->size();
  report->Check(perfbench::HighestSupportedPercentile(n) >= 99.0,
                util::StrFormat("%zu frame-latency samples support a p99", n));
  const double tail_p = perfbench::HighestSupportedPercentile(n);
  report->Metric("frame_latency_p50_us", perfbench::Percentile(samples, 50.0),
                 "us");
  report->Metric("frame_latency_p99_us", perfbench::Percentile(samples, 99.0),
                 "us");
  report->Info("frame_latency_samples", static_cast<double>(n));
  report->Info("frame_latency_tail_percentile", tail_p);
  report->Info("frame_latency_tail_us", perfbench::Percentile(samples, tail_p));
}

/// On the simulated medium a frame's send-to-delivery host time mirrors the
/// simulated delay, which the hottest (from, to) pairs' FIFO backlog sets
/// and which varies by half between seeds; the host cost users wait on is
/// the run's wall time per frame, so both percentiles report that mean.
void ReportMeanFrameCost(double seconds_per_frame, Report* report) {
  const double us_per_frame = seconds_per_frame * 1e6;
  report->Metric("frame_latency_p50_us", us_per_frame, "us");
  report->Metric("frame_latency_p99_us", us_per_frame, "us");
  report->Info("frame_latency_source", "\"mean host time per frame\"");
}

void NotApplicableUdp(Report* report);

// --- paper_1m ---------------------------------------------------------------

/// Simulated seconds of paper_1m per requested wall second: the run covers
/// a horizon proportional to --seconds, so its RunMetrics depend only on
/// (seed, seconds) and never on host speed.
constexpr double kPaperSimSecondsPerSecond = 120.0;
constexpr size_t kPaperNodes = size_t{1} << 20;

experiment::ExperimentConfig PaperConfig(const Args& args) {
  experiment::ExperimentConfig c;
  c.scheme = experiment::Scheme::kDup;
  c.topology = experiment::TopologyKind::kRandomTree;
  c.num_nodes = kPaperNodes;
  c.max_degree = 4;
  c.lambda = 0.005 * static_cast<double>(kPaperNodes);
  c.zipf_theta = 0.8;
  c.threshold_c = 6;
  c.ttl = 3600.0;
  c.push_lead = 60.0;
  c.warmup_time = 0.0;
  c.measure_time = kPaperSimSecondsPerSecond * args.seconds;
  c.scheduler = sim::SchedulerKind::kCalendar;
  c.seed = args.seed;
  return c;
}

std::unique_ptr<experiment::SimulationDriver> SetUp(
    const experiment::ExperimentConfig& config, double* seconds) {
  const int64_t start = NowNs();
  auto driver = std::make_unique<experiment::SimulationDriver>(config);
  const util::Status status = driver->Init();
  *seconds = SecondsSince(start);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: Init failed: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  return driver;
}

/// paper_1m is timed in slices of this many simulated seconds; its host
/// rates are medians over the slices, so a stretch of host interference
/// moves few of them.
constexpr double kPaperSliceSeconds = 100.0;

struct SimRun {
  metrics::RunMetrics metrics;
  double run_s = 0.0;
  uint64_t events = 0;
  // Per-slice host rates.
  std::vector<double> events_per_s;
  std::vector<double> frames_per_s;
  std::vector<double> cpu_us_per_frame;
  std::vector<double> wall_s_per_frame;
  bool audit_clean = false;
  double audit_s = 0.0;
};

/// Runs `driver` to its horizon in slices, then drains the queue (the
/// workload stops seeding at its horizon), and audits the quiescent state.
SimRun RunDrained(experiment::SimulationDriver* driver, double horizon) {
  SimRun run;
  sim::Engine& engine = driver->engine();
  const net::OverlayNetwork& network = driver->network();
  const int64_t start = NowNs();
  for (double until = kPaperSliceSeconds;; until += kPaperSliceSeconds) {
    const int64_t wall0 = NowNs();
    const double cpu0 = CpuSeconds();
    const uint64_t events0 = engine.processed();
    const uint64_t sent0 = network.messages_sent();
    const uint64_t dropped0 = network.messages_dropped();
    if (until < horizon) {
      engine.RunUntil(until);
    } else {
      engine.Run();
    }
    const double wall = SecondsSince(wall0);
    const double sent = static_cast<double>(network.messages_sent() - sent0);
    const double delivered =
        sent - static_cast<double>(network.messages_dropped() - dropped0);
    if (sent > 0 && wall > 0) {
      run.events_per_s.push_back((engine.processed() - events0) / wall);
      run.frames_per_s.push_back(delivered / wall);
      run.cpu_us_per_frame.push_back((CpuSeconds() - cpu0) * 1e6 / sent);
      run.wall_s_per_frame.push_back(wall / sent);
    }
    if (until >= horizon) break;
  }
  run.run_s = SecondsSince(start);
  run.events = engine.processed();
  run.metrics = driver->Collect();
  const int64_t audit_start = NowNs();
  run.audit_clean = driver->AuditQuiescent().ok();
  run.audit_s = SecondsSince(audit_start);
  return run;
}

void CheckSimRun(const SimRun& run, bool lossless, Report* report) {
  report->Attempt();
  bool ok = report->Check(run.audit_clean, "AuditQuiescent after the drain");
  ok &= report->Check(run.metrics.queries > 0, "queries were served");
  if (lossless) {
    ok &= report->Check(run.metrics.queries == run.metrics.queries_issued,
                        "every issued query is answered after the drain");
  }
  if (!ok) report->Fail();
}

void RunPaper(const Args& args, Report* report) {
  const experiment::ExperimentConfig config = PaperConfig(args);
  const double horizon = config.warmup_time + config.measure_time;
  report->Info("config", "\"" + config.ToString() + "\"");
  const double rss0 = CurrentRssBytes();

  if (!args.trace) {
    // Set up five times and keep the last driver: setup_s is their median.
    std::vector<double> setups;
    std::unique_ptr<experiment::SimulationDriver> driver;
    for (int i = 0; i < 5; ++i) {
      driver.reset();
      double seconds = 0.0;
      driver = SetUp(config, &seconds);
      if (!driver) return;
      setups.push_back(seconds);
    }
    const SimRun run = RunDrained(driver.get(), horizon);
    CheckSimRun(run, /*lossless=*/true, report);
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("events_per_s", Median(run.events_per_s), "ev/s");
    report->Metric("peak_rss_mb", PeakRssBytes() / (1 << 20), "MB");
    ReportQueryMetrics(run.metrics, report);
    ReportMeanFrameCost(Median(run.wall_s_per_frame), report);
    report->Metric("wire_frames_per_s", Median(run.frames_per_s), "frames/s");
    report->Metric("cpu_us_per_frame", Median(run.cpu_us_per_frame), "us");
    report->Info("slices", static_cast<double>(run.events_per_s.size()));
    report->Info("events", static_cast<double>(run.events));
    report->Info("run_s", run.run_s);
    return;
  }

  // Traced: an untraced reference pass, then the same seed with every seam
  // instrumented; their RunMetrics must be bit-identical.
  double setup_s = 0.0;
  SimRun untraced;
  double bytes_per_node = 0.0;
  {
    auto driver = SetUp(config, &setup_s);
    if (!driver) return;
    untraced = RunDrained(driver.get(), horizon);
    bytes_per_node = (CurrentRssBytes() - rss0) / kPaperNodes;
    CheckSimRun(untraced, true, report);
  }

  auto driver = SetUp(config, &setup_s);
  if (!driver) return;
  TimedSink sink(&driver->protocol(), nullptr);
  driver->network().set_sink(&sink);
  FrameClock clock(16);
  clock.set_capture(50000);
  driver->network().set_observer(&clock);
  sim::Engine& engine = driver->engine();
  int64_t step_self_ns = 0, step_span_ns = 0;
  uint64_t steps = 0;
  size_t pending_max = engine.pending();
  const int64_t start = NowNs();
  for (;;) {
    const int64_t sink_before = sink.span_ns();
    const int64_t t0 = NowNs();
    const bool more = engine.Step();
    const int64_t t1 = NowNs();
    if (!more) break;
    step_span_ns += t1 - t0;
    step_self_ns += (t1 - t0) - (sink.span_ns() - sink_before);
    ++steps;
    pending_max = std::max(pending_max, engine.pending());
  }
  const double run_s = SecondsSince(start);
  SimRun traced;
  traced.metrics = driver->Collect();
  const int64_t audit_start = NowNs();
  traced.audit_clean = driver->AuditQuiescent().ok();
  const double audit_s = SecondsSince(audit_start);
  CheckSimRun(traced, true, report);
  if (!report->Check(SameMetrics(untraced.metrics, traced.metrics),
                     "traced RunMetrics bit-identical to untraced")) {
    report->Fail();
  }

  report->Metric("sim.step_ns", static_cast<double>(step_self_ns) / steps,
                 "ns");
  report->Metric("sim.pending_max", static_cast<double>(pending_max), "count");
  report->Metric("proto.dispatch_ns.request",
                 sink.MeanNs(metrics::HopClass::kRequest), "ns");
  report->Metric("proto.dispatch_ns.reply",
                 sink.MeanNs(metrics::HopClass::kReply), "ns");
  report->Metric("proto.dispatch_ns.push",
                 sink.MeanNs(metrics::HopClass::kPush), "ns");
  report->Metric("proto.dispatch_ns.control",
                 sink.MeanNs(metrics::HopClass::kControl), "ns");
  ReportHopsPerQuery(traced.metrics, clock.acks(), report);
  ReportDeliveryAndCache(traced.metrics, report);
  report->Metric("workload.zipf_sample_ns",
                 ZipfSampleNs(kPaperNodes, config.zipf_theta, args.seed),
                 "ns");
  report->Metric("topo.generate_s",
                 TreeGenerateSeconds(kPaperNodes, config.max_degree,
                                     args.seed),
                 "s");
  report->Metric("core.bytes_per_node", bytes_per_node, "B");
  report->Metric("core.max_fan_out",
                 static_cast<double>(driver->dup_protocol()->MaxDirectFanOut()),
                 "count");
  report->Metric(
      "core.max_subscriber_list",
      static_cast<double>(driver->dup_protocol()->MaxSubscriberListSize()),
      "count");
  report->Metric("proto.migrations", 0.0, "count");  // Static DUP.
  report->NotApplicable("multikey.sharded_events_per_s", "ev/s");
  ReplayWire(clock.captured(), report);
  report->NotApplicable("net.udp.ship_ns", "ns");
  NotApplicableUdp(report);
  report->NotApplicable("experiment.pace_lag_ms", "ms");
  report->Metric("audit.quiescent_s", audit_s, "s");
  report->Metric("ledger.run_s", run_s, "s");
  report->Metric("ledger.sim_self_frac", step_self_ns * 1e-9 / run_s, "ratio");
  report->Metric("ledger.proto_dispatch_frac", sink.self_ns() * 1e-9 / run_s,
                 "ratio");
  report->NotApplicable("ledger.udp_ship_frac", "ratio");
  report->NotApplicable("ledger.scheduler_excess_frac", "ratio");
  report->Metric("ledger.residual_frac", 1.0 - step_span_ns * 1e-9 / run_s,
                 "ratio");
  report->Metric("trace.overhead_frac", run_s / untraced.run_s - 1.0, "ratio");
  report->Info("events", static_cast<double>(engine.processed()));
  report->Info("untraced_run_s", untraced.run_s);
}

// --- multikey_lossy ---------------------------------------------------------

constexpr double kMultikeySimSecondsPerSecond = 18.0;
constexpr int kMultikeyReps = 3;
constexpr size_t kMultikeyNodes = 4096;
constexpr size_t kMultikeyKeys = 64;

multikey::MultiKeyConfig MultikeyConfig(const Args& args) {
  multikey::MultiKeyConfig c;
  c.num_nodes = kMultikeyNodes;
  c.num_keys = kMultikeyKeys;
  c.scheme = experiment::Scheme::kAdaptive;
  c.lambda = 200.0;
  c.key_zipf_theta = 0.8;
  c.node_zipf_theta = 0.8;
  c.ttl = 600.0;
  c.push_lead = 30.0;
  c.faults.loss_rate = 0.05;
  c.faults.retry_max = 4;
  c.faults.refresh_interval = 600.0;
  c.warmup_time = 600.0;
  c.measure_time = kMultikeySimSecondsPerSecond * args.seconds;
  c.shards = 1;
  c.jobs = 1;
  c.seed = args.seed;
  return c;
}

uint64_t Migrations(const multikey::MultiKeyResult& result) {
  uint64_t total = 0;
  for (const auto& key : result.keys) total += key.migrations.size();
  return total;
}

bool SameMigrations(const multikey::MultiKeyResult& a,
                    const multikey::MultiKeyResult& b) {
  if (a.keys.size() != b.keys.size()) return false;
  for (size_t k = 0; k < a.keys.size(); ++k) {
    if (a.keys[k].migrations != b.keys[k].migrations) return false;
  }
  return true;
}

void RunMultikey(const Args& args, Report* report) {
  const multikey::MultiKeyConfig config = MultikeyConfig(args);
  const double rss0 = CurrentRssBytes();

  // Set-up cost: Init is private, so time five runs whose horizon is a
  // single simulated millisecond (Init plus the t=0 publishes).
  std::vector<double> setups;
  multikey::MultiKeyConfig tiny = config;
  tiny.warmup_time = 0.0;
  tiny.measure_time = 1e-3;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    auto result = multikey::MultiKeySimulation::Run(tiny);
    setups.push_back(SecondsSince(start));
    if (!report->Check(result.ok(), "multikey set-up run")) return;
  }

  // kMultikeyReps repetitions of the same seed, each a one-engine run and
  // its sharded twin: the host-time figures are medians over them, and the
  // repetitions must agree exactly.
  multikey::MultiKeyConfig sharded_config = config;
  sharded_config.shards = config.num_keys;
  std::optional<multikey::MultiKeyResult> one;
  std::vector<double> run_s, sharded_s, cpu_s;
  for (int rep = 0; rep < kMultikeyReps; ++rep) {
    const double cpu0 = CpuSeconds();
    const int64_t start = NowNs();
    auto result = multikey::MultiKeySimulation::Run(config);
    run_s.push_back(SecondsSince(start));
    cpu_s.push_back(CpuSeconds() - cpu0);
    const int64_t sharded_start = NowNs();
    auto sharded = multikey::MultiKeySimulation::Run(sharded_config);
    sharded_s.push_back(SecondsSince(sharded_start));
    report->Attempt(2);
    if (!report->Check(result.ok(), "multikey shards=1 run") ||
        !report->Check(sharded.ok(), "multikey shards=keys run")) {
      report->Fail();
      return;
    }
    if (!one) one = *result;
    if (!report->Check(SameMetrics(one->aggregate, result->aggregate) &&
                           SameMigrations(*one, *result),
                       "repeated shards=1 runs bit-identical") ||
        !report->Check(SameMetrics(one->aggregate, sharded->aggregate),
                       "shards=1 and shards=keys aggregates bit-identical") ||
        !report->Check(SameMigrations(*one, *sharded),
                       "shards=1 and shards=keys migrations identical") ||
        !report->Check(one->events_processed == sharded->events_processed,
                       "shards=1 and shards=keys event counts identical")) {
      report->Fail();
    }
  }
  const double peak_rss = PeakRssBytes();

  const metrics::RunMetrics& m = one->aggregate;
  const double events = static_cast<double>(one->events_processed);
  const double frames = static_cast<double>(m.delivery.total_sent());
  const double delivered = static_cast<double>(m.delivery.total_delivered());
  auto median_per = [](const std::vector<double>& times, double per) {
    std::vector<double> rates;
    for (double t : times) rates.push_back(per / t);
    return Median(rates);
  };
  report->Info("events", events);
  report->Info("run_s", Median(run_s));
  report->Info("sharded_run_s", Median(sharded_s));
  report->Info("migrations", static_cast<double>(Migrations(*one)));

  if (!args.trace) {
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("events_per_s", median_per(run_s, events), "ev/s");
    report->Metric("peak_rss_mb", peak_rss / (1 << 20), "MB");
    ReportQueryMetrics(m, report);
    ReportMeanFrameCost(1.0 / median_per(run_s, frames), report);
    report->Metric("wire_frames_per_s", median_per(run_s, delivered),
                   "frames/s");
    report->Metric("cpu_us_per_frame", 1e6 / median_per(cpu_s, frames),
                   "us");
    return;
  }

  report->NotApplicable("sim.step_ns", "ns");
  report->NotApplicable("sim.pending_max", "count");
  report->Metric("multikey.sharded_events_per_s",
                 median_per(sharded_s, events), "ev/s");
  for (const char* cls : {"request", "reply", "push", "control"}) {
    report->NotApplicable(std::string("proto.dispatch_ns.") + cls, "ns");
  }
  ReportHopsPerQuery(m, 0, report);
  report->NotApplicable("net.hops.ack", "hops/query");  // No network seam.
  ReportDeliveryAndCache(m, report);
  report->Metric("workload.zipf_sample_ns",
                 ZipfSampleNs(kMultikeyNodes, config.node_zipf_theta,
                              args.seed),
                 "ns");
  report->Metric("topo.generate_s",
                 TreeGenerateSeconds(kMultikeyNodes, 4, args.seed), "s");
  report->Metric("core.bytes_per_node", (peak_rss - rss0) / kMultikeyNodes,
                 "B");
  report->NotApplicable("core.max_fan_out", "count");
  report->NotApplicable("core.max_subscriber_list", "count");
  report->Metric("proto.migrations", static_cast<double>(Migrations(*one)),
                 "count");
  for (const char* name : {"net.wire.serialize_ns", "net.wire.parse_ns"}) {
    report->NotApplicable(name, "ns");
  }
  report->NotApplicable("net.wire.bytes_per_frame", "B");
  report->NotApplicable("net.udp.ship_ns", "ns");
  NotApplicableUdp(report);
  report->NotApplicable("experiment.pace_lag_ms", "ms");
  report->NotApplicable("audit.quiescent_s", "s");
  report->Metric("ledger.run_s", Median(run_s), "s");
  report->NotApplicable("ledger.sim_self_frac", "ratio");
  report->NotApplicable("ledger.proto_dispatch_frac", "ratio");
  report->NotApplicable("ledger.udp_ship_frac", "ratio");
  // Subtraction experiment: the sharded twin does the same work on one
  // thread, so the difference is what one shared engine adds.
  const double sharded_share = Median(sharded_s) / Median(run_s);
  report->Metric("ledger.scheduler_excess_frac", 1.0 - sharded_share,
                 "ratio");
  report->Metric("ledger.residual_frac", sharded_share, "ratio");
  report->NotApplicable("trace.overhead_frac", "ratio");
}

// --- wire_loopback ----------------------------------------------------------

constexpr double kWirePace = 200.0;
constexpr size_t kWireNodes = 4096;
constexpr double kWireReferenceLambda = 10.0;
/// Offered rates above the reference. They reach past the loss cliff; the
/// cliff is what wire_frames_per_s measures, so the ladder is not trimmed.
const std::vector<double> kWireLadder = {
    kWireReferenceLambda, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 20.0, 24.0};
constexpr double kWireP99LimitUs = 1000.0;
constexpr size_t kReferenceReps = 3;

std::string RungSuffix(double lambda) {
  return util::StrFormat(".l%d", static_cast<int>(lambda));
}

void NotApplicableUdp(Report* report) {
  for (double lambda : kWireLadder) {
    const std::string s = RungSuffix(lambda);
    report->NotApplicable("net.udp.frames_per_s" + s, "frames/s");
    report->NotApplicable("net.udp.frames_lost" + s, "count");
    report->NotApplicable("net.udp.frames_rejected" + s, "count");
    report->NotApplicable("net.udp.cpu_busy_frac" + s, "ratio");
    report->NotApplicable("net.udp.audit_clean" + s, "bool");
  }
}

struct WireRun {
  perfbench::Rung rung;
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double audit_s = 0.0;
  uint64_t shipped = 0;
  uint64_t events = 0;
  metrics::RunMetrics metrics;
  std::vector<double> latency_us;
  std::vector<double> lag_ms;
  std::vector<net::Message> captured;
  uint64_t acks = 0;
  int64_t ship_ns = 0;
  uint64_t ships = 0;
  int64_t sink_self_ns = 0;
  double dispatch_ns[metrics::kNumHopClasses] = {};
  size_t max_fan_out = 0;
  size_t max_subscriber_list = 0;
  double bytes_per_node = 0.0;
  uint64_t unmatched = 0;
  uint64_t expired = 0;
};

experiment::ExperimentConfig WireConfig(const Args& args, double lambda,
                                        double wall_seconds) {
  experiment::ExperimentConfig c;
  c.scheme = experiment::Scheme::kDup;
  c.num_nodes = kWireNodes;
  c.lambda = lambda;
  c.ttl = 120.0;
  c.push_lead = 10.0;
  c.warmup_time = 0.0;
  c.measure_time = wall_seconds * kWirePace;
  c.transport = experiment::TransportKind::kWire;
  c.wire_pace = kWirePace;
  c.faults.retry_max = 3;
  c.faults.retry_timeout = 2.0;
  c.faults.retry_backoff = 2.0;
  c.seed = args.seed;
  return c;
}

/// Opens a loopback UDP transport on a free port near a pid-derived base.
std::unique_ptr<net::UdpTransport> OpenLoopback() {
  const int base = 20000 + static_cast<int>(getpid() % 20000);
  for (int attempt = 0; attempt < 64; ++attempt) {
    auto transport = std::make_unique<net::UdpTransport>();
    net::UdpTransport::Options options;
    options.peers = {util::StrFormat("127.0.0.1:%d", base + attempt * 7)};
    options.loopback_wire = true;
    if (transport->Open(options).ok()) return transport;
  }
  return nullptr;
}

/// One paced open-loop run at offered rate `lambda`: the dupsim
/// transport=wire path (SimulationDriver + UdpTransport + RealtimeRunner).
WireRun RunWireRung(const Args& args, double lambda, double wall_seconds,
                    bool traced) {
  WireRun out;
  out.rung.lambda = lambda;
  const experiment::ExperimentConfig config =
      WireConfig(args, lambda, wall_seconds);
  const double rss0 = CurrentRssBytes();

  const int64_t setup_start = NowNs();
  std::unique_ptr<net::UdpTransport> udp = OpenLoopback();
  if (!udp) {
    std::fprintf(stderr, "perfbench: no free loopback UDP port\n");
    return out;
  }
  TimedTransport timed(udp.get());
  experiment::SimulationDriver driver(config);
  driver.set_transport(traced ? static_cast<net::Transport*>(&timed)
                              : udp.get());
  if (!driver.Init().ok()) return out;
  udp->set_network(&driver.network());
  out.setup_s = SecondsSince(setup_start);

  FrameClock clock(/*sample_every=*/1);
  std::unique_ptr<TimedSink> sink;
  if (traced) {
    sink = std::make_unique<TimedSink>(&driver.protocol(), &timed);
    driver.network().set_sink(sink.get());
    clock.set_capture(50000);
  }
  driver.network().set_observer(&clock);

  experiment::RealtimeOptions options;
  options.pace = kWirePace;
  experiment::RealtimeRunner runner(&driver, udp.get(), options);
  const uint64_t shipped0 = udp->frames_shipped();
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  clock.set_pacing(&driver.engine(), kWirePace, start);
  const util::Status status =
      runner.Run(config.warmup_time + config.measure_time);
  out.run_s = SecondsSince(start);
  out.cpu_s = CpuSeconds() - cpu0;
  clock.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: wire run at lambda=%g: %s\n", lambda,
                 status.ToString().c_str());
  }

  const int64_t audit_start = NowNs();
  out.rung.audit_clean = status.ok() && driver.AuditQuiescent().ok();
  out.audit_s = SecondsSince(audit_start);
  out.shipped = udp->frames_shipped() - shipped0;
  out.rung.completed = status.ok();
  out.rung.frames_lost = udp->frames_shipped() - udp->frames_received();
  out.rung.frames_rejected = udp->frames_rejected();
  out.rung.frames_per_s = out.shipped / wall_seconds;
  out.events = driver.engine().processed();
  out.metrics = driver.Collect();
  out.latency_us = std::move(clock.latency_us());
  out.rung.p99_us = perfbench::Percentile(&out.latency_us, 99.0);
  out.lag_ms = std::move(clock.lag_ms());
  out.captured = clock.captured();
  out.acks = clock.acks();
  out.unmatched = clock.matcher().unmatched();
  out.expired = clock.matcher().expired();
  out.ship_ns = timed.total_ns();
  out.ships = timed.ships();
  if (sink) {
    out.sink_self_ns = sink->self_ns();
    for (int c = 0; c < metrics::kNumHopClasses; ++c) {
      out.dispatch_ns[c] = sink->MeanNs(static_cast<metrics::HopClass>(c));
    }
  }
  out.max_fan_out = driver.dup_protocol()->MaxDirectFanOut();
  out.max_subscriber_list = driver.dup_protocol()->MaxSubscriberListSize();
  out.bytes_per_node = (CurrentRssBytes() - rss0) / kWireNodes;
  return out;
}

std::string RungJson(WireRun& run) {
  return util::StrFormat(
      "{\"lambda\": %g, \"frames_shipped\": %" PRIu64
      ", \"frames_per_s\": %.1f, \"frames_lost\": %" PRIu64
      ", \"frames_rejected\": %" PRIu64
      ", \"audit\": \"%s\", \"completed\": %s, \"p50_us\": %.2f, "
      "\"p99_us\": %.2f, \"cpu_busy_frac\": %.4f, \"unmatched\": %" PRIu64
      ", \"expired\": %" PRIu64 "}",
      run.rung.lambda, run.shipped, run.rung.frames_per_s,
      run.rung.frames_lost, run.rung.frames_rejected,
      run.rung.audit_clean ? "clean" : "violations",
      run.rung.completed ? "true" : "false",
      perfbench::Percentile(&run.latency_us, 50.0),
      run.rung.p99_us, run.cpu_s / run.run_s, run.unmatched, run.expired);
}

void RunWire(const Args& args, Report* report) {
  // Every rung, the reference repetitions included, paces a fifteenth of
  // the budget; set-up and the paced drain fill the rest.
  const double rung_wall = args.seconds / 15.0;

  // Extra set-ups, so that setup_s is the median of many millisecond-scale
  // samples rather than of the rungs' few.
  std::vector<double> setups;
  for (int i = 0; i < 20; ++i) {
    const int64_t start = NowNs();
    auto udp = OpenLoopback();
    experiment::SimulationDriver driver(WireConfig(args, 10.0, 1.0));
    driver.set_transport(udp.get());
    const bool ok = udp && driver.Init().ok();
    setups.push_back(SecondsSince(start));
    if (!report->Check(ok, "wire set-up")) return;
  }

  // The reference rate runs kReferenceReps times, interleaved with the
  // ladder, and its figures are the medians of the repetitions: a host
  // hiccup during one stretch of the run then moves none of them.
  std::vector<WireRun> refs;
  std::vector<WireRun> ladder;
  std::string ladder_json = "[";
  auto run_rung = [&](double lambda, std::vector<WireRun>* into) {
    into->push_back(RunWireRung(args, lambda, rung_wall, args.trace));
    setups.push_back(into->back().setup_s);
    ladder_json += (ladder_json.size() > 1 ? ", " : "") +
                   RungJson(into->back());
  };
  const size_t above = kWireLadder.size() - 1;
  for (size_t i = 0; i < above; ++i) {
    if (i % ((above + kReferenceReps - 1) / kReferenceReps) == 0) {
      run_rung(kWireReferenceLambda, &refs);
    }
    run_rung(kWireLadder[i + 1], &ladder);
  }
  ladder_json += "]";
  report->Info("ladder", ladder_json);

  auto median_of = [&refs](auto field) {
    std::vector<double> values;
    for (WireRun& run : refs) values.push_back(field(run));
    return Median(values);
  };
  perfbench::Rung reference;
  reference.lambda = kWireReferenceLambda;
  reference.completed = reference.audit_clean = true;
  uint64_t shipped = 0;
  std::vector<double> pooled_us;
  for (const WireRun& run : refs) {
    reference.completed &= run.rung.completed;
    reference.audit_clean &= run.rung.audit_clean;
    reference.frames_lost += run.rung.frames_lost;
    reference.frames_rejected += run.rung.frames_rejected;
    shipped += run.shipped;
    pooled_us.insert(pooled_us.end(), run.latency_us.begin(),
                     run.latency_us.end());
  }
  reference.frames_per_s =
      median_of([](WireRun& r) { return r.rung.frames_per_s; });
  reference.p99_us = median_of([](WireRun& r) { return r.rung.p99_us; });
  std::vector<perfbench::Rung> rungs = {reference};
  for (const WireRun& run : ladder) rungs.push_back(run.rung);

  // An operation is a frame shipped at the reference rate; a lost or
  // rejected frame fails, and so does an unclean audit.
  report->Attempt(shipped);
  report->Fail(reference.frames_lost + reference.frames_rejected);
  if (!report->Check(reference.completed && reference.audit_clean,
                     "reference rungs complete with a clean audit")) {
    report->Fail();
  }
  report->Check(reference.frames_lost == 0 && reference.frames_rejected == 0,
                "reference rungs lose and reject no frame");
  const double max_rate =
      perfbench::MaxSustainedFramesPerSecond(rungs, kWireP99LimitUs);
  report->Check(max_rate > 0.0, "reference rate meets the ladder rule");
  report->Info("config",
               "\"" + WireConfig(args, kWireReferenceLambda, rung_wall)
                          .ToString() + "\"");
  WireRun& ref = refs.front();

  if (!args.trace) {
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("events_per_s",
                   median_of([](WireRun& r) { return r.events / r.run_s; }),
                   "ev/s");
    report->Metric("peak_rss_mb", PeakRssBytes() / (1 << 20), "MB");
    report->Info("run_metrics_digest",
                 util::StrFormat("\"%016" PRIx64 "\"",
                                 MetricsDigest(ref.metrics)));
    report->Metric("query_latency_hops", median_of([](WireRun& r) {
                     return r.metrics.avg_latency_hops;
                   }), "hops");
    report->Metric("query_cost_hops", median_of([](WireRun& r) {
                     return r.metrics.avg_cost_hops;
                   }), "hops");
    ReportFrameLatency(&pooled_us, report);
    report->Metric("frame_latency_p50_us", median_of([](WireRun& r) {
                     return perfbench::Percentile(&r.latency_us, 50.0);
                   }), "us");
    report->Metric("frame_latency_p99_us", reference.p99_us, "us");
    report->Metric("wire_frames_per_s", max_rate, "frames/s");
    report->Metric("cpu_us_per_frame", median_of([](WireRun& r) {
                     return r.cpu_s * 1e6 / r.shipped;
                   }), "us");
    return;
  }

  // Overhead of the traced seams: an untraced reference rung for contrast.
  const WireRun plain =
      RunWireRung(args, kWireReferenceLambda, rung_wall, false);
  const double plain_cpu_per_frame = plain.cpu_s / plain.shipped;
  const double traced_cpu_per_frame = ref.cpu_s / ref.shipped;

  report->NotApplicable("sim.step_ns", "ns");
  report->NotApplicable("sim.pending_max", "count");
  report->NotApplicable("multikey.sharded_events_per_s", "ev/s");
  report->Metric("proto.dispatch_ns.request", ref.dispatch_ns[0], "ns");
  report->Metric("proto.dispatch_ns.reply", ref.dispatch_ns[1], "ns");
  report->Metric("proto.dispatch_ns.push", ref.dispatch_ns[2], "ns");
  report->Metric("proto.dispatch_ns.control", ref.dispatch_ns[3], "ns");
  ReportHopsPerQuery(ref.metrics, ref.acks, report);
  ReportDeliveryAndCache(ref.metrics, report);
  report->Metric("workload.zipf_sample_ns",
                 ZipfSampleNs(kWireNodes, 0.8, args.seed), "ns");
  report->Metric("topo.generate_s",
                 TreeGenerateSeconds(kWireNodes, 4, args.seed), "s");
  report->Metric("core.bytes_per_node", ref.bytes_per_node, "B");
  report->Metric("core.max_fan_out", static_cast<double>(ref.max_fan_out),
                 "count");
  report->Metric("core.max_subscriber_list",
                 static_cast<double>(ref.max_subscriber_list), "count");
  report->Metric("proto.migrations", 0.0, "count");  // Static DUP.
  ReplayWire(ref.captured, report);
  report->Metric("net.udp.ship_ns",
                 ref.ships ? static_cast<double>(ref.ship_ns) / ref.ships : 0.0,
                 "ns");
  for (size_t i = 0; i < rungs.size(); ++i) {
    const perfbench::Rung& rung = rungs[i];
    const std::string s = RungSuffix(rung.lambda);
    report->Metric("net.udp.frames_per_s" + s, rung.frames_per_s, "frames/s");
    report->Metric("net.udp.frames_lost" + s,
                   static_cast<double>(rung.frames_lost), "count");
    report->Metric("net.udp.frames_rejected" + s,
                   static_cast<double>(rung.frames_rejected), "count");
    report->Metric("net.udp.cpu_busy_frac" + s,
                   i == 0 ? median_of([](WireRun& r) {
                     return r.cpu_s / r.run_s;
                   })
                          : ladder[i - 1].cpu_s / ladder[i - 1].run_s,
                   "ratio");
    report->Metric("net.udp.audit_clean" + s, rung.audit_clean ? 1 : 0,
                   "bool");
  }
  report->Metric("experiment.pace_lag_ms",
                 perfbench::Percentile(&ref.lag_ms, 99.0), "ms");
  report->Metric("audit.quiescent_s", ref.audit_s, "s");
  report->Metric("ledger.run_s", ref.run_s, "s");
  report->NotApplicable("ledger.sim_self_frac", "ratio");
  report->Metric("ledger.proto_dispatch_frac",
                 ref.sink_self_ns * 1e-9 / ref.run_s, "ratio");
  report->Metric("ledger.udp_ship_frac", ref.ship_ns * 1e-9 / ref.run_s,
                 "ratio");
  report->NotApplicable("ledger.scheduler_excess_frac", "ratio");
  // What the timed seams leave unexplained: engine work, socket receive,
  // and the pacing loop's idle waits (cpu_busy_frac shows how much idles).
  report->Metric("ledger.residual_frac",
                 1.0 - (ref.sink_self_ns + ref.ship_ns) * 1e-9 / ref.run_s,
                 "ratio");
  report->Metric("trace.overhead_frac",
                 traced_cpu_per_frame / plain_cpu_per_frame - 1.0, "ratio");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <paper_1m|multikey_lossy|"
                 "wire_loopback> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  Report report;
  report.Info("workload", "\"" + args.workload + "\"");
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("trace", args.trace ? 1.0 : 0.0);
  if (args.workload == "paper_1m") {
    RunPaper(args, &report);
  } else if (args.workload == "multikey_lossy") {
    RunMultikey(args, &report);
  } else if (args.workload == "wire_loopback") {
    RunWire(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  report.Print();
  return 0;
}
