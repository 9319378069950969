// bench_scale — the million-node scaling exhibit (docs/scaling.md).
//
// Sweeps the network size N from 1k to 100k nodes (10^6 with
// DUP_BENCH_FULL=1) and, for each of PCX/CUP/DUP, runs one TTL period at a
// constant per-node query rate, recording
//
//   * events/sec — end-to-end simulator throughput at that scale, and
//   * bytes/node — the peak heap footprint of building AND running the
//     simulation, divided by N. With the flat dense-id state storage
//     (core::NodeRegistry + NodeSlab, docs/scaling.md) this is a small,
//     nearly size-independent constant per scheme.
//
// Peak footprint is measured by the binary's own size-tracking
// operator new/delete: every allocation carries a 16-byte size header, and
// live/peak byte counters are maintained exactly — no sampling, no
// RSS noise.
//
// A scheduler-only microbench rides along: for each N it holds N pending
// events in a bare sim::EventQueue and measures steady pop/push cycles
// under BOTH the calendar scheduler and the reference binary heap, so the
// engine-level speedup is visible separately from protocol work. A mixed
// arm (1024 and 10240 held, 5% and 50% near holds) repeats it with the
// paper's two-mode event horizon: hop deliveries next to timers hundreds
// of seconds out. The whole-run sweep itself honours DUP_SCHEDULER=heap|calendar (default
// calendar) for A/B comparisons.
//
// The JSON record lands in results/bench_scale.json (override with
// DUP_BENCH_SCALE_JSON); the committed baseline in results/baseline/ makes
// it part of the `reproduce.sh --check-against` benchdiff gate.
// DUP_BENCH_SCALE_NODES=1024,4096 overrides the size list (CI smoke).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "experiment/manifest.h"
#include "metrics/run_manifest.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/str.h"

// --------------------------------------------------------------------------
// Exact heap accounting. Each block is over-allocated by a 16-byte header
// holding its size, so delete can subtract exactly what new added. The
// header keeps the user pointer 16-byte aligned (glibc malloc alignment),
// which covers every type this codebase allocates.
// --------------------------------------------------------------------------

namespace {

constexpr std::size_t kHeaderSize = 16;
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void TrackAlloc(std::size_t size) {
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void* TrackedNew(std::size_t size) {
  void* base = std::malloc(size + kHeaderSize);
  if (base == nullptr) throw std::bad_alloc();
  std::memcpy(base, &size, sizeof(size));
  TrackAlloc(size);
  return static_cast<char*>(base) + kHeaderSize;
}

void TrackedDelete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeaderSize;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof(size));
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t size) { return TrackedNew(size); }
void* operator new[](std::size_t size) { return TrackedNew(size); }
void operator delete(void* p) noexcept { TrackedDelete(p); }
void operator delete[](void* p) noexcept { TrackedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedDelete(p); }

namespace {

using namespace dupnet;

struct ScalePoint {
  size_t nodes = 0;
  const char* scheme = "";
  uint64_t events = 0;
  double wall_seconds = 0.0;
  uint64_t peak_bytes = 0;  ///< Peak heap above the pre-run baseline.
  size_t event_slots = 0;
  size_t message_slots = 0;
  size_t pair_clock_slots = 0;
  double events_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
  double bytes_per_node() const {
    return nodes > 0 ? static_cast<double>(peak_bytes) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
};

/// The whole-run scheduler: calendar unless the scheduler key's
/// environment alias (DUP_SCHEDULER) says otherwise.
sim::SchedulerKind RunScheduler() {
  const experiment::KeySchema schema{"bench_scale", {"scheduler"}, {}};
  util::ConfigMap keys;
  experiment::ExperimentConfig config;
  DUP_CHECK_OK(experiment::ResolveEnvAliases(schema, &keys));
  DUP_CHECK_OK(experiment::ApplyKeys(schema, keys, &config));
  return config.scheduler;
}

/// One TTL period at a constant per-node query rate, so event volume —
/// and with it the throughput figure — scales with the network instead of
/// being dominated by fixed publish traffic.
experiment::ExperimentConfig ScaleConfig(experiment::Scheme scheme,
                                         size_t nodes) {
  experiment::ExperimentConfig config;
  config.scheme = scheme;
  config.num_nodes = nodes;
  config.lambda = 0.005 * static_cast<double>(nodes);
  config.warmup_time = 0.0;
  config.measure_time = 3540.0;
  config.scheduler = RunScheduler();
  return config;
}

// --------------------------------------------------------------------------
// Scheduler-only microbench: a bare EventQueue holding `held` pending
// events, cycled pop -> push (hold model). Isolates the engine's
// scheduling cost from protocol dispatch. Two hold distributions: the
// uniform-rate one (exponential gaps, the pinned `scheduler_sweep`) and
// the paper's mixed horizon (`scheduler_mixed_sweep`): a fraction `near`
// of holds are Exp(0.1 s) hop deliveries, the rest U(100, 600) s TTL,
// push-lead and refresh timers.
// --------------------------------------------------------------------------

struct NullTarget : sim::EventTarget {
  void OnSimEvent(uint32_t, uint64_t) override {}
};

struct SchedulerPoint {
  size_t held = 0;
  const char* kind = "";
  double near = 0.0;  ///< Mixed arm only: fraction of near holds.
  uint64_t ops = 0;
  double wall_seconds = 0.0;
  double ops_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(ops) / wall_seconds : 0.0;
  }
};

/// Prefills the queue with `held` events at prefill(rng), then times 2^22
/// pop -> push cycles, each re-pushing the popped event hold(rng) later.
template <typename Prefill, typename Hold>
SchedulerPoint MeasureHoldModel(sim::SchedulerKind kind, const char* name,
                                size_t held, Prefill prefill, Hold hold) {
  sim::EventQueue queue;
  queue.set_scheduler(kind);
  queue.Reserve(held);
  NullTarget target;
  util::Rng rng(0x5eedu + static_cast<uint64_t>(held));
  for (size_t i = 0; i < held; ++i) queue.Push(prefill(rng), &target, 0, i);

  SchedulerPoint point;
  point.held = held;
  point.kind = name;
  point.ops = 1u << 22;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < point.ops; ++i) {
    const sim::Event e = queue.Pop();
    queue.Push(e.time + hold(rng), &target, 0, e.arg);
  }
  const auto end = std::chrono::steady_clock::now();
  point.wall_seconds = std::chrono::duration<double>(end - start).count();
  while (!queue.empty()) queue.Pop();
  return point;
}

SchedulerPoint MeasureSchedulerOnly(sim::SchedulerKind kind, const char* name,
                                    size_t held) {
  // Mean gap 1/held keeps the pending set spanning ~1 sim-second at every
  // scale, like a constant-rate simulation holding `held` events.
  const double mean_gap = 1.0 / static_cast<double>(held);
  return MeasureHoldModel(
      kind, name, held,
      [](util::Rng& rng) { return rng.UniformDouble(0.0, 1.0); },
      [&](util::Rng& rng) {
        return rng.Exponential(mean_gap) * static_cast<double>(held);
      });
}

SchedulerPoint MeasureSchedulerMixed(sim::SchedulerKind kind, const char* name,
                                     size_t held, double near) {
  const auto hold = [near](util::Rng& rng) {
    return rng.Bernoulli(near) ? rng.Exponential(0.1)
                               : rng.UniformDouble(100.0, 600.0);
  };
  SchedulerPoint point = MeasureHoldModel(kind, name, held, hold, hold);
  point.near = near;
  return point;
}

ScalePoint MeasureScale(experiment::Scheme scheme, const char* name,
                        size_t nodes) {
  const experiment::ExperimentConfig config = ScaleConfig(scheme, nodes);

  ScalePoint point;
  point.nodes = nodes;
  point.scheme = name;
  const uint64_t live_before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live_before, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  {
    experiment::SimulationDriver driver(config);
    DUP_CHECK_OK(driver.Init());
    driver.RunToCompletion();
    point.events = driver.engine().processed();
    point.event_slots = driver.engine().pool_slots();
    point.message_slots = driver.network().message_pool_slots();
    point.pair_clock_slots = driver.network().pair_clock_capacity();
  }
  const auto end = std::chrono::steady_clock::now();
  point.wall_seconds = std::chrono::duration<double>(end - start).count();
  point.peak_bytes =
      g_peak_bytes.load(std::memory_order_relaxed) - live_before;
  return point;
}

std::vector<size_t> SweepSizes(bool full) {
  if (const char* env = std::getenv("DUP_BENCH_SCALE_NODES");
      env != nullptr && *env != '\0') {
    std::vector<size_t> sizes;
    for (const std::string& field : util::StrSplit(env, ',')) {
      int64_t value = 0;
      if (!util::ParseInt64(field, &value) || value < 2) {
        std::fprintf(stderr,
                     "bench_scale: bad DUP_BENCH_SCALE_NODES entry \"%s\"\n",
                     field.c_str());
        std::exit(2);
      }
      sizes.push_back(static_cast<size_t>(value));
    }
    return sizes;
  }
  std::vector<size_t> sizes = {1024, 10240, 102400};
  if (full) sizes.push_back(1048576);
  return sizes;
}

}  // namespace

int main() {
  const bench::BenchSettings settings = bench::BenchSettings::FromEnv();
  const std::vector<size_t> sizes = SweepSizes(settings.full);

  std::printf("=== bench_scale — dense-id storage scaling sweep ===\n");
  std::printf("scheduler: %s (override with DUP_SCHEDULER=heap|calendar)\n",
              std::string(experiment::SchedulerToString(RunScheduler()))
                  .c_str());
  std::printf("sizes:");
  for (size_t n : sizes) std::printf(" %zu", n);
  std::printf("  (override with DUP_BENCH_SCALE_NODES, extend with "
              "DUP_BENCH_FULL=1)\n\n");

  // Scheduler-only throughput first: same pending-set sizes, no protocol.
  std::vector<SchedulerPoint> scheduler_points;
  for (size_t held : sizes) {
    for (const auto& [kind, kind_name] :
         {std::pair{sim::SchedulerKind::kHeap, "heap"},
          std::pair{sim::SchedulerKind::kCalendar, "calendar"}}) {
      const SchedulerPoint point = MeasureSchedulerOnly(kind, kind_name, held);
      std::printf("queue n=%-8zu %-8s: %8.3gM ops/s\n", point.held,
                  point.kind, point.ops_per_second() / 1e6);
      scheduler_points.push_back(point);
    }
  }
  std::printf("\n");

  // The mixed-horizon arm: same queue, two-mode holds.
  std::vector<SchedulerPoint> mixed_points;
  for (size_t held : {size_t{1024}, size_t{10240}}) {
    for (double near : {0.05, 0.5}) {
      for (const auto& [kind, kind_name] :
           {std::pair{sim::SchedulerKind::kHeap, "heap"},
            std::pair{sim::SchedulerKind::kCalendar, "calendar"}}) {
        const SchedulerPoint point =
            MeasureSchedulerMixed(kind, kind_name, held, near);
        std::printf("mixed n=%-6zu near=%.2f %-8s: %8.3gM ops/s\n",
                    point.held, point.near, point.kind,
                    point.ops_per_second() / 1e6);
        mixed_points.push_back(point);
      }
    }
  }
  std::printf("\n");

  struct SchemeCase {
    experiment::Scheme scheme;
    const char* name;
  };
  const SchemeCase schemes[] = {
      {experiment::Scheme::kPcx, "pcx"},
      {experiment::Scheme::kCup, "cup"},
      {experiment::Scheme::kDup, "dup"},
  };

  std::vector<ScalePoint> points;
  double total_wall = 0.0;
  for (size_t nodes : sizes) {
    for (const SchemeCase& sc : schemes) {
      const ScalePoint point = MeasureScale(sc.scheme, sc.name, nodes);
      total_wall += point.wall_seconds;
      std::printf(
          "n=%-8zu %s: %10llu events in %7.3fs = %8.3gM events/s, "
          "%6.1f bytes/node (peak %.1f MiB)\n",
          point.nodes, point.scheme,
          static_cast<unsigned long long>(point.events), point.wall_seconds,
          point.events_per_second() / 1e6, point.bytes_per_node(),
          static_cast<double>(point.peak_bytes) / (1024.0 * 1024.0));
      points.push_back(point);
    }
  }

  metrics::RunManifest manifest = experiment::MakeRunManifest(
      "bench_scale", "scale_sweep",
      ScaleConfig(experiment::Scheme::kDup, sizes.back()), /*jobs=*/1);
  manifest.wall_seconds = total_wall;

  util::JsonValue sweep = util::JsonValue::MakeArray();
  for (const ScalePoint& point : points) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("nodes", static_cast<uint64_t>(point.nodes));
    entry.Set("scheme", point.scheme);
    entry.Set("events", point.events);
    entry.Set("wall_seconds", point.wall_seconds);
    entry.Set("events_per_second", point.events_per_second());
    entry.Set("peak_bytes", point.peak_bytes);
    entry.Set("bytes_per_node", point.bytes_per_node());
    entry.Set("event_slots", static_cast<uint64_t>(point.event_slots));
    entry.Set("message_slots", static_cast<uint64_t>(point.message_slots));
    entry.Set("pair_clock_slots",
              static_cast<uint64_t>(point.pair_clock_slots));
    sweep.Append(std::move(entry));
  }

  util::JsonValue scheduler_sweep = util::JsonValue::MakeArray();
  for (const SchedulerPoint& point : scheduler_points) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("held", static_cast<uint64_t>(point.held));
    entry.Set("kind", point.kind);
    entry.Set("ops", point.ops);
    entry.Set("ops_per_second", point.ops_per_second());
    scheduler_sweep.Append(std::move(entry));
  }

  util::JsonValue scheduler_mixed_sweep = util::JsonValue::MakeArray();
  for (const SchedulerPoint& point : mixed_points) {
    util::JsonValue entry = util::JsonValue::MakeObject();
    entry.Set("held", static_cast<uint64_t>(point.held));
    entry.Set("near_fraction", point.near);
    entry.Set("kind", point.kind);
    entry.Set("ops", point.ops);
    entry.Set("ops_per_second", point.ops_per_second());
    scheduler_mixed_sweep.Append(std::move(entry));
  }

  util::JsonValue doc = util::JsonValue::MakeObject();
  doc.Set("manifest", manifest.ToJson());
  doc.Set("exhibit", "scale_sweep");
  doc.Set("sweep", std::move(sweep));
  doc.Set("scheduler_sweep", std::move(scheduler_sweep));
  doc.Set("scheduler_mixed_sweep", std::move(scheduler_mixed_sweep));
  bench::WriteJsonArtifact(doc, "results/bench_scale.json",
                           "DUP_BENCH_SCALE_JSON");
  return 0;
}
