// Compares PCX, CUP and DUP on the same workload, reproducing a single
// point of the paper's Figure 4 interactively:
//
//   ./scheme_comparison nodes=4096 lambda=1 reps=3
//
// Prints absolute latency/cost per scheme plus costs relative to PCX.

#include <cstdio>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/replicator.h"
#include "experiment/report.h"
#include "util/check.h"
#include "util/config.h"
#include "util/str.h"

int main(int argc, char** argv) {
  using namespace dupnet;

  auto args = util::ConfigMap::FromArgs(argc, argv);
  DUP_CHECK(args.ok()) << args.status().ToString();

  experiment::ExperimentConfig config;
  config.num_nodes = 1024;
  config.warmup_time = 3600.0;
  config.measure_time = 14160.0;
  config.count_forwarded_queries = false;
  const experiment::KeySchema schema{
      "scheme_comparison",
      {"nodes", "degree", "lambda", "theta", "seed", "warmup", "measure",
       "percopy", "passrep", "fwd", "c", "alpha"},
      {{"reps", "replications per scheme [3]",
        experiment::ValueKind::kPositiveCount}}};
  DUP_CHECK_OK(experiment::ApplyKeys(schema, *args, &config));
  // Giving a Pareto shape selects Pareto arrivals.
  if (args->Has("alpha")) config.arrival = experiment::ArrivalKind::kPareto;
  const size_t reps = static_cast<size_t>(args->GetInt("reps", 3));

  std::printf("comparing schemes at lambda=%g on n=%zu (reps=%zu)...\n",
              config.lambda, config.num_nodes, reps);
  auto comparison = experiment::CompareSchemes(config, reps);
  DUP_CHECK(comparison.ok()) << comparison.status().ToString();

  experiment::TableReport table(
      util::StrFormat("Scheme comparison (lambda=%g, n=%zu, theta=%g)",
                      config.lambda, config.num_nodes, config.zipf_theta),
      {"scheme", "latency (hops)", "cost (hops/query)", "cost vs PCX",
       "local hit", "stale"});
  auto row = [&](const char* name, const metrics::ReplicationSummary& s,
                 double relative) {
    table.AddRow({name, experiment::CiCell(s.latency.mean, s.latency.half_width),
                  experiment::CiCell(s.cost.mean, s.cost.half_width),
                  experiment::PercentCell(relative),
                  experiment::PercentCell(s.local_hit_rate.mean),
                  experiment::PercentCell(s.stale_rate.mean)});
  };
  row("PCX", comparison->pcx, 1.0);
  row("CUP", comparison->cup, comparison->cup_cost_relative_to_pcx());
  row("DUP", comparison->dup, comparison->dup_cost_relative_to_pcx());
  table.Print();

  std::printf(
      "\nexpected shape (paper Fig. 4): latency(DUP) << latency(CUP) < "
      "latency(PCX);\ncost(DUP) < cost(CUP) < cost(PCX).\n");
  return 0;
}
