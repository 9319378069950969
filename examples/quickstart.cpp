// Quickstart: simulate DUP on a small peer-to-peer network and print the
// headline metrics. Every parameter can be overridden on the command line:
//
//   ./quickstart nodes=4096 degree=4 lambda=2 scheme=dup theta=0.8 seed=7
//
// This is the smallest end-to-end use of the library's public API: build an
// ExperimentConfig, run the SimulationDriver, read the RunMetrics.

#include <cstdio>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "util/check.h"
#include "util/config.h"

int main(int argc, char** argv) {
  using namespace dupnet;

  auto args = util::ConfigMap::FromArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "usage: %s [key=value ...]\n  %s\n", argv[0],
                 args.status().ToString().c_str());
    return 1;
  }

  // Example defaults, then the command line through the config key table.
  experiment::ExperimentConfig config;
  config.num_nodes = 1024;
  config.warmup_time = 3600.0;
  config.measure_time = 14160.0;
  const experiment::KeySchema schema{
      "quickstart",
      {"scheme", "topology", "nodes", "degree", "lambda", "theta", "c",
       "seed", "warmup", "measure"},
      {}};
  DUP_CHECK_OK(experiment::ApplyKeys(schema, *args, &config));

  std::printf("running: %s\n", config.ToString().c_str());
  auto metrics = experiment::SimulationDriver::Run(config);
  DUP_CHECK(metrics.ok()) << metrics.status().ToString();

  std::printf("\nresults (%llu measured queries)\n",
              static_cast<unsigned long long>(metrics->queries));
  std::printf("  average query latency : %.4f hops\n",
              metrics->avg_latency_hops);
  std::printf("  average query cost    : %.4f hops/query\n",
              metrics->avg_cost_hops);
  std::printf("  local cache hit rate  : %.1f%%\n",
              metrics->local_hit_rate * 100.0);
  std::printf("  stale serve rate      : %.2f%%\n",
              metrics->stale_rate * 100.0);
  std::printf("  hops: request=%llu reply=%llu push=%llu control=%llu\n",
              static_cast<unsigned long long>(metrics->hops.request()),
              static_cast<unsigned long long>(metrics->hops.reply()),
              static_cast<unsigned long long>(metrics->hops.push()),
              static_cast<unsigned long long>(metrics->hops.control()));
  return 0;
}
