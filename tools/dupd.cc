// dupd — one rank of a distributed DUP cluster speaking the packed
// net::wire format over UDP (docs/wire-format.md).
//
//   dupd rank=R peers=H0:P0,H1:P1,... [key=value ...]
//
// Execution is SPMD: every rank builds the identical topology and workload
// schedule from the same seed, owns the nodes with id % procs == rank, and
// exchanges cross-ownership overlay messages as wire frames over real
// sockets (procs = the peer-list length; rank R binds the R-th endpoint).
// The discrete-event engine is paced against the wall clock (pace[200]
// simulated seconds per wall second) so ack round-trips and retry timers
// play out in real time; the run drains to network quiescence before
// exiting. Every outbound frame is round-trip-verified and every inbound
// frame re-encoded and byte-compared in flight — a violation of the wire
// contract aborts the rank.
//
// Simulation keys are rows of the config key table
// (src/experiment/config_keys.cc), with cluster-sized defaults set below;
// kSchema lists them with the rank's own keys. An unknown or malformed
// key exits with status 2 and the accepted keys with their doc lines.
//
// frame_log=PATH appends every transmitted ('T') and received ('R') frame
// as [dir][u32 len LE][bytes] records — tools/dupwire validates such logs
// offline. stats_json=PATH writes per-rank counters for the cluster smoke
// harness (scripts/cluster_smoke.sh) to assert on.
//
// Malformed values abort: a typo'd rank, port or peer list must not
// silently run a different cluster shape.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "experiment/realtime_runner.h"
#include "net/udp_transport.h"
#include "util/check.h"
#include "util/config.h"
#include "util/json.h"
#include "util/str.h"

namespace {

using namespace dupnet;
using experiment::ValueKind;

const experiment::KeySchema kSchema{
    "dupd",
    {"scheme", "nodes", "degree", "lambda", "theta", "c", "ttl", "lead",
     "hoplat", "warmup", "measure", "seed", "retry_max", "retry_timeout",
     "retry_backoff", "refresh_interval", "trace_out", "trace_sample"},
    {{"rank", "this process's index into peers [0]", ValueKind::kCount},
     {"peers", "H0:P0,H1:P1,... one UDP endpoint per rank (required)"},
     {"pace", "simulated s per wall-clock s [200]", ValueKind::kPositive},
     {"poll_ms", "socket poll timeout, ms [1]", ValueKind::kCount},
     {"settle_ms", "quiet wall time that ends the drain, ms [300]",
      ValueKind::kCount},
     {"max_wall_ms", "wall-clock cap on the run, ms [120000]",
      ValueKind::kCount},
     {"frame_log", "append every sent/received frame here"},
     {"stats_json", "write per-rank counters here"}}};

std::vector<std::string> SplitPeers(const std::string& spec) {
  std::vector<std::string> peers;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string item = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    DUP_CHECK(!item.empty()) << "peer list has an empty entry: \"" << spec
                             << "\"";
    peers.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return peers;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = util::ConfigMap::FromArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "usage: %s rank=R peers=H0:P0,H1:P1,... [key=value ...]\n"
                 "  %s\n",
                 argv[0], args.status().ToString().c_str());
    return 1;
  }

  // Cluster-sized defaults; reliable delivery is on, since over real
  // sockets the FaultConfig ack/retry machinery is what recovers dropped
  // datagrams.
  experiment::ExperimentConfig config;
  config.num_nodes = 64;
  config.lambda = 5.0;
  config.threshold_c = 2;
  config.ttl = 60.0;
  config.push_lead = 5.0;
  config.hop_latency_mean = 0.01;
  config.warmup_time = 0.0;
  config.measure_time = 30.0;
  config.faults.retry_max = 3;
  if (util::Status status = experiment::ApplyKeys(kSchema, *args, &config);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 2;
  }
  DUP_CHECK_OK(config.Validate());

  DUP_CHECK(args->Has("peers")) << "peers=H0:P0,H1:P1,... is required";
  const std::vector<std::string> peers =
      SplitPeers(args->GetString("peers", ""));
  const int procs = static_cast<int>(peers.size());
  const int64_t rank_arg = args->GetInt("rank", 0);
  DUP_CHECK(rank_arg < procs)
      << "rank must be in [0, " << procs << "), got " << rank_arg;
  const int rank = static_cast<int>(rank_arg);

  net::UdpTransport transport;
  net::UdpTransport::Options topts;
  topts.rank = rank;
  topts.peers = peers;
  topts.frame_log_path = args->GetString("frame_log", "");
  DUP_CHECK_OK(transport.Open(topts));

  experiment::SimulationDriver driver(config);
  driver.set_transport(&transport);
  driver.set_node_filter([rank, procs](NodeId node) {
    return static_cast<int>(node % static_cast<NodeId>(procs)) == rank;
  });
  DUP_CHECK_OK(driver.Init());
  transport.set_network(&driver.network());

  experiment::RealtimeOptions ropts;
  ropts.pace = args->GetDouble("pace", 200.0);
  ropts.poll_ms = static_cast<int>(args->GetInt("poll_ms", 1));
  ropts.settle_ms = static_cast<int>(args->GetInt("settle_ms", 300));
  ropts.max_wall_ms = static_cast<int>(args->GetInt("max_wall_ms", 120000));
  experiment::RealtimeRunner runner(&driver, &transport, ropts);
  DUP_CHECK_OK(runner.Run(config.warmup_time + config.measure_time));

  DUP_CHECK(transport.frames_rejected() == 0)
      << transport.frames_rejected() << " inbound frames failed to parse";

  const metrics::RunMetrics metrics = driver.Collect();
  std::printf(
      "dupd rank %d/%d: shipped=%llu datagrams=%llu received=%llu "
      "rejected=%llu sent=%llu dropped=%llu queries=%llu\n",
      rank, procs,
      static_cast<unsigned long long>(transport.frames_shipped()),
      static_cast<unsigned long long>(transport.datagrams_shipped()),
      static_cast<unsigned long long>(transport.frames_received()),
      static_cast<unsigned long long>(transport.frames_rejected()),
      static_cast<unsigned long long>(driver.network().messages_sent()),
      static_cast<unsigned long long>(driver.network().messages_dropped()),
      static_cast<unsigned long long>(metrics.queries));

  const std::string stats_path = args->GetString("stats_json", "");
  if (!stats_path.empty()) {
    util::JsonValue doc = util::JsonValue::MakeObject();
    doc.Set("rank", static_cast<uint64_t>(rank));
    doc.Set("procs", static_cast<uint64_t>(procs));
    doc.Set("frames_shipped", transport.frames_shipped());
    doc.Set("frames_received", transport.frames_received());
    doc.Set("frames_rejected", transport.frames_rejected());
    doc.Set("datagrams_shipped", transport.datagrams_shipped());
    doc.Set("datagrams_dropped", transport.datagrams_dropped());
    doc.Set("messages_sent", driver.network().messages_sent());
    doc.Set("messages_dropped", driver.network().messages_dropped());
    doc.Set("pending_acks",
            static_cast<uint64_t>(driver.network().pending_acks()));
    doc.Set("queries", metrics.queries);
    const std::string text = doc.Dump(2) + "\n";
    std::FILE* file = std::fopen(stats_path.c_str(), "w");
    DUP_CHECK(file != nullptr) << "cannot write " << stats_path;
    std::fwrite(text.data(), 1, text.size(), file);
    std::fclose(file);
  }
  return 0;
}
