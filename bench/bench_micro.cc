// Micro-benchmarks (google-benchmark) for the core data structures: the
// event queue and engine (typed events, the only kind), the subscriber
// list, Chord lookups, Zipf sampling, SHA-1 and a full end-to-end mini
// simulation.
//
// Besides the google-benchmark suite, main() runs a calibrated measurement
// pass — events/sec plus a heap-allocation census — and records it to
// results/bench_micro.json (override with DUP_BENCH_MICRO_JSON). The census
// covers both the bare typed engine AND whole PCX/CUP/DUP simulations: each
// full sim runs twice, the first run sizing every pool (events, in-flight
// messages, FIFO pair clocks), the second hard-asserting that a fully
// prewarmed run performs zero heap allocations end to end. A last row
// weighs the end-of-run invariant audit: the bytes one AuditQuiescent over
// the DUP run allocates, hard-asserted below 16 B per node.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench_common.h"
#include "chord/ring.h"
#include "chord/sha1.h"
#include "audit/invariant_checker.h"
#include "core/subscriber_list.h"
#include "experiment/config.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "metrics/run_manifest.h"
#include "sim/event_queue.h"
#include "topo/tree_generator.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/zipf_selector.h"

// --------------------------------------------------------------------------
// Heap-allocation census. The whole binary's operator new funnels through
// here so the measurement pass can prove "zero allocations per event" on
// the typed engine path rather than assert it in a comment.
// --------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dupnet;

uint64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

uint64_t AllocBytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// google-benchmark suite.
// --------------------------------------------------------------------------

/// Trivial target for queue/engine benches.
class NullTarget : public sim::EventTarget {
 public:
  void OnSimEvent(uint32_t, uint64_t) override {}
};

void BM_EventQueueTypedPushPop(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  NullTarget target;
  sim::EventQueue queue;  // Reused across iterations: pool stays warm.
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      queue.Push(rng.NextDouble(), &target, 0, i);
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_EventQueueTypedPushPop)->Range(64, 65536);

/// Self-rescheduling typed tick: arg counts the remaining events.
class ChainTicker : public sim::EventTarget {
 public:
  explicit ChainTicker(sim::Engine* engine) : engine_(engine) {}
  void OnSimEvent(uint32_t, uint64_t remaining) override {
    if (remaining > 0) engine_->ScheduleAfter(0.1, this, 0, remaining - 1);
  }

 private:
  sim::Engine* engine_;
};

void BM_EngineTypedEventChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    ChainTicker ticker(&engine);
    engine.ScheduleAfter(0.1, &ticker, 0, 10000 - 1);
    engine.Run();
    benchmark::DoNotOptimize(engine.processed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_EngineTypedEventChain);

void BM_SubscriberListSetRemove(benchmark::State& state) {
  const NodeId branches = static_cast<NodeId>(state.range(0));
  for (auto _ : state) {
    core::SubscriberList list;
    for (NodeId b = 0; b < branches; ++b) list.Set(b, b + 100);
    for (NodeId b = 0; b < branches; ++b) {
      benchmark::DoNotOptimize(list.Get(b));
    }
    for (NodeId b = 0; b < branches; ++b) list.Remove(b);
    benchmark::DoNotOptimize(list.size());
  }
}
BENCHMARK(BM_SubscriberListSetRemove)->Arg(4)->Arg(10)->Arg(32);

void BM_Sha1(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(chord::Sha1(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Range(8, 8192);

void BM_ChordLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto ring = chord::ChordRing::Create(n);
  const chord::ChordId key = chord::Sha1Hash64("bench-key");
  util::Rng rng(7);
  for (auto _ : state) {
    const NodeId from = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    benchmark::DoNotOptimize(ring->LookupPath(from, key));
  }
}
BENCHMARK(BM_ChordLookup)->Range(256, 16384);

void BM_ZipfSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<NodeId> nodes(n);
  for (size_t i = 0; i < n; ++i) nodes[i] = static_cast<NodeId>(i);
  util::Rng perm(1);
  workload::ZipfNodeSelector zipf(std::move(nodes), 0.8, &perm);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample)->Range(1024, 65536);

void BM_TreeGeneration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(3);
  topo::TreeGeneratorOptions options;
  options.num_nodes = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::TreeGenerator::Generate(options, &rng));
  }
}
BENCHMARK(BM_TreeGeneration)->Range(1024, 65536);

/// The mid-size end-to-end configuration both the google-benchmark
/// full-sim cases and the measurement pass run (also recorded in the JSON
/// manifest).
experiment::ExperimentConfig MicroSimConfig(experiment::Scheme scheme) {
  experiment::ExperimentConfig config;
  config.scheme = scheme;
  config.num_nodes = 1024;
  config.lambda = 5.0;
  config.warmup_time = 0.0;
  config.measure_time = 3540.0;
  return config;
}

void BM_FullSimulation(benchmark::State& state) {
  // One TTL period on a mid-size network: the end-to-end cost per scheme.
  const auto scheme = static_cast<experiment::Scheme>(state.range(0));
  for (auto _ : state) {
    auto metrics =
        experiment::SimulationDriver::Run(MicroSimConfig(scheme));
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_FullSimulation)
    ->Arg(static_cast<int>(experiment::Scheme::kPcx))
    ->Arg(static_cast<int>(experiment::Scheme::kCup))
    ->Arg(static_cast<int>(experiment::Scheme::kDup));

// --------------------------------------------------------------------------
// Calibrated measurement pass: events/sec and allocations/event on the
// typed engine, recorded to JSON as the repo's perf baseline.
// --------------------------------------------------------------------------

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct EngineBaseline {
  uint64_t events = 0;
  double wall_seconds = 0.0;
  uint64_t allocations = 0;
  size_t pool_slots = 0;
  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

/// Self-rescheduling typed chain: after a short warm-up the engine's pool
/// and heap storage are at their high-water mark, so the measured window
/// must perform zero heap allocations.
EngineBaseline MeasureTypedChain(uint64_t events) {
  sim::Engine engine;
  ChainTicker ticker(&engine);
  engine.ScheduleAfter(0.1, &ticker, 0, 1024 - 1);
  engine.Run();  // Warm-up: grows the pool to steady state.

  EngineBaseline result;
  result.events = events;
  const uint64_t allocs_before = AllocCount();
  const auto start = std::chrono::steady_clock::now();
  engine.ScheduleAfter(0.1, &ticker, 0, events - 1);
  engine.Run();
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = Seconds(start, end);
  result.allocations = AllocCount() - allocs_before;
  result.pool_slots = engine.pool_slots();
  DUP_CHECK_EQ(result.allocations, 0u)
      << "typed event hot path allocated on the heap";
  return result;
}

/// Sorted drain: pushes `batch` typed events at random times into a warm
/// queue, pops them all. Exercises the heap sift paths rather than the
/// single-pending-event chain.
EngineBaseline MeasureQueueChurn(size_t batch, size_t rounds) {
  NullTarget target;
  sim::EventQueue queue;
  util::Rng rng(17);
  // Warm-up round grows heap + pool to the batch's high-water mark.
  for (size_t i = 0; i < batch; ++i) {
    queue.Push(rng.NextDouble(), &target, 0, i);
  }
  while (!queue.empty()) queue.Pop().Fire();

  EngineBaseline result;
  result.events = static_cast<uint64_t>(batch) * rounds;
  const uint64_t allocs_before = AllocCount();
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < batch; ++i) {
      queue.Push(rng.NextDouble(), &target, 0, i);
    }
    while (!queue.empty()) queue.Pop().Fire();
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = Seconds(start, end);
  result.allocations = AllocCount() - allocs_before;
  result.pool_slots = queue.pool_slots();
  DUP_CHECK_EQ(result.allocations, 0u)
      << "typed queue churn allocated on the heap";
  return result;
}

struct SimBaseline {
  const char* scheme = "";
  uint64_t events = 0;
  double wall_seconds = 0.0;
  uint64_t allocations = 0;
  size_t event_slots = 0;    ///< Engine event-pool high-water mark.
  size_t message_slots = 0;  ///< Network in-flight slab high-water mark.
  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
  double allocations_per_event() const {
    return events > 0 ? static_cast<double>(allocations) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

/// Whole-simulation census, two runs. The first run learns the
/// configuration's pool high-water marks (event slots, in-flight message
/// slots and their route capacities, FIFO pair-clock links); the second
/// replays the identical run, prewarms every pool to those marks between
/// Init and the first event, and hard-asserts that the entire simulation —
/// every event from the first to the last — performed zero heap
/// allocations. Protocol state is flat slabs sized at construction
/// (docs/scaling.md), so once the transport pools are pre-sized there is
/// nothing left that touches the heap.
SimBaseline MeasureFullSim(experiment::Scheme scheme, const char* name) {
  const experiment::ExperimentConfig config = MicroSimConfig(scheme);

  experiment::SimulationDriver sizing(config);
  DUP_CHECK_OK(sizing.Init());
  sizing.RunToCompletion();

  SimBaseline result;
  result.scheme = name;
  experiment::SimulationDriver driver(config);
  DUP_CHECK_OK(driver.Init());  // Builds topology + pools: may allocate.
  // Capacity reservations only: the replay's events and metrics match the
  // sizing run's.
  driver.engine().ReserveEvents(sizing.engine().pool_slots());
  driver.network().Prewarm(
      sizing.network().message_pool_slots(),
      sizing.network().max_route_capacity(),
      static_cast<size_t>(sizing.network().pair_clock_inserts()) + 1,
      config.num_nodes);
  const uint64_t allocs_before = AllocCount();
  const auto start = std::chrono::steady_clock::now();
  driver.RunToCompletion();
  const auto end = std::chrono::steady_clock::now();
  result.events = driver.engine().processed();
  result.wall_seconds = Seconds(start, end);
  result.allocations = AllocCount() - allocs_before;
  result.event_slots = driver.engine().pool_slots();
  result.message_slots = driver.network().message_pool_slots();
  DUP_CHECK_EQ(result.allocations, 0u)
      << "prewarmed " << name << " simulation allocated on the heap";
  return result;
}

/// The end-of-run audit's heap footprint: one AuditQuiescent over a
/// completed DUP run. The audit walks the protocol's slabs in place, so it
/// may allocate only its per-id witnesses (the cache-version column and the
/// reachability bitset) and the push frontier.
struct AuditBaseline {
  size_t nodes = 0;
  uint64_t allocations = 0;
  uint64_t bytes = 0;
  double bytes_per_node() const {
    return nodes > 0 ? static_cast<double>(bytes) / nodes : 0.0;
  }
};

AuditBaseline MeasureAuditQuiescent() {
  constexpr double kMaxBytesPerNode = 1.0;
  const experiment::ExperimentConfig config =
      MicroSimConfig(experiment::Scheme::kDup);
  experiment::SimulationDriver driver(config);
  DUP_CHECK_OK(driver.Init());
  driver.RunToCompletion();
  driver.engine().Run();  // Drain: the audit needs a quiescent network.
  AuditBaseline result;
  result.nodes = config.num_nodes;
  const uint64_t allocs_before = AllocCount();
  const uint64_t bytes_before = AllocBytes();
  DUP_CHECK_OK(driver.AuditQuiescent());
  result.allocations = AllocCount() - allocs_before;
  result.bytes = AllocBytes() - bytes_before;
  DUP_CHECK_LT(result.bytes_per_node(), kMaxBytesPerNode)
      << "AuditQuiescent allocated " << result.bytes << " B over "
      << result.nodes << " nodes";
  return result;
}

void RunMeasurementPass() {
  std::printf("\n=== Typed event-engine baseline ===\n");

  const EngineBaseline chain = MeasureTypedChain(2'000'000);
  std::printf(
      "event chain : %llu events in %.3fs = %.3gM events/s, "
      "%llu allocs (pool %zu slots)\n",
      static_cast<unsigned long long>(chain.events), chain.wall_seconds,
      chain.events_per_second() / 1e6,
      static_cast<unsigned long long>(chain.allocations), chain.pool_slots);

  const EngineBaseline churn = MeasureQueueChurn(4096, 256);
  std::printf(
      "queue churn : %llu events in %.3fs = %.3gM events/s, "
      "%llu allocs (pool %zu slots)\n",
      static_cast<unsigned long long>(churn.events), churn.wall_seconds,
      churn.events_per_second() / 1e6,
      static_cast<unsigned long long>(churn.allocations), churn.pool_slots);

  SimBaseline sims[] = {
      MeasureFullSim(experiment::Scheme::kPcx, "pcx"),
      MeasureFullSim(experiment::Scheme::kCup, "cup"),
      MeasureFullSim(experiment::Scheme::kDup, "dup"),
  };
  for (const SimBaseline& sim : sims) {
    std::printf(
        "full sim %s: %llu events in %.3fs = %.3gM events/s, "
        "%llu allocs (prewarmed run; %zu event slots, %zu message slots)\n",
        sim.scheme, static_cast<unsigned long long>(sim.events),
        sim.wall_seconds, sim.events_per_second() / 1e6,
        static_cast<unsigned long long>(sim.allocations), sim.event_slots,
        sim.message_slots);
  }

  const AuditBaseline audit = MeasureAuditQuiescent();
  std::printf(
      "audit_quiescent dup: %llu allocs, %llu B = %.2f B/node (%zu nodes)\n",
      static_cast<unsigned long long>(audit.allocations),
      static_cast<unsigned long long>(audit.bytes), audit.bytes_per_node(),
      audit.nodes);

  const auto engine_json = [](const EngineBaseline& b) {
    util::JsonValue json = util::JsonValue::MakeObject();
    json.Set("events", b.events);
    json.Set("wall_seconds", b.wall_seconds);
    json.Set("events_per_second", b.events_per_second());
    json.Set("allocations", b.allocations);
    json.Set("allocations_per_event",
             b.events > 0 ? static_cast<double>(b.allocations) /
                                static_cast<double>(b.events)
                          : 0.0);
    json.Set("pool_slots", static_cast<uint64_t>(b.pool_slots));
    return json;
  };

  double total_wall = chain.wall_seconds + churn.wall_seconds;
  util::JsonValue full_sims = util::JsonValue::MakeArray();
  for (const SimBaseline& sim : sims) {
    total_wall += sim.wall_seconds;
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("scheme", sim.scheme);
    entry.Set("events", sim.events);
    entry.Set("wall_seconds", sim.wall_seconds);
    entry.Set("events_per_second", sim.events_per_second());
    entry.Set("allocations", sim.allocations);
    entry.Set("allocations_per_event", sim.allocations_per_event());
    entry.Set("event_slots", static_cast<uint64_t>(sim.event_slots));
    entry.Set("message_slots", static_cast<uint64_t>(sim.message_slots));
    full_sims.Append(std::move(entry));
  }

  metrics::RunManifest manifest = experiment::MakeRunManifest(
      "bench_micro", "micro_baseline",
      MicroSimConfig(experiment::Scheme::kDup), /*jobs=*/1);
  manifest.wall_seconds = total_wall;

  util::JsonValue doc = util::JsonValue::MakeObject();
  doc.Set("manifest", manifest.ToJson());
  doc.Set("exhibit", "micro_baseline");
  doc.Set("event_chain", engine_json(chain));
  doc.Set("queue_churn", engine_json(churn));
  doc.Set("full_simulation", std::move(full_sims));
  util::JsonValue audit_json = util::JsonValue::MakeObject();
  audit_json.Set("scheme", "dup");
  audit_json.Set("nodes", static_cast<uint64_t>(audit.nodes));
  audit_json.Set("allocations", audit.allocations);
  audit_json.Set("bytes", audit.bytes);
  audit_json.Set("bytes_per_node", audit.bytes_per_node());
  doc.Set("audit_quiescent", std::move(audit_json));

  bench::WriteJsonArtifact(doc, "results/bench_micro.json",
                           "DUP_BENCH_MICRO_JSON");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunMeasurementPass();
  return 0;
}
