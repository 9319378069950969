// Reproduces Figure 8: Pareto (heavy-tailed) query inter-arrival times with
// alpha = 1.05 and 1.20 — (a) latency and (b) cost relative to PCX as the
// mean rate varies.

#include <vector>

#include "bench_common.h"
#include "util/str.h"

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Figure 8 — Pareto query arrivals", settings);

  std::vector<double> lambdas = {0.1, 1.0, 10.0, 30.0};
  if (settings.full) lambdas.push_back(100.0);
  const std::vector<double> alphas = {1.05, 1.20};

  std::vector<experiment::ExperimentConfig> points;
  for (double lambda : lambdas) {
    for (double alpha : alphas) {
      experiment::ExperimentConfig config = PaperDefaults(settings);
      config.arrival = experiment::ArrivalKind::kPareto;
      config.pareto_alpha = alpha;
      config.lambda = lambda;
      points.push_back(config);
    }
  }
  const auto sweep = MustCompareSweep(points, settings);

  experiment::TableReport table = LatencyCostTable(
      "(a) latency; (b) cost relative to PCX", {"lambda", "alpha"});
  size_t p = 0;
  for (double lambda : lambdas) {
    for (double alpha : alphas) {
      AddLatencyCostRow(&table,
                        {util::StrFormat("%g", lambda),
                         util::StrFormat("%.2f", alpha)},
                        sweep[p++]);
    }
    table.AddSeparator();
  }
  table.Print();
  MaybeWriteCsv(table, "fig8_pareto");
  PrintExpectation(
      "DUP performs much better than CUP in both alpha settings; burstier "
      "arrivals (alpha=1.05) improve every scheme because bursts reuse "
      "cached copies before expiry; at high rates the bursty case shows a "
      "slight relative-cost uptick as interest flaps between bursts and "
      "idle stretches waste some pushes.");
  return 0;
}
