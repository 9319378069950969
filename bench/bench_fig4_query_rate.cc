// Reproduces Figure 4: (a) average query latency with 95% confidence
// intervals and (b) average cost relative to PCX, as the mean query arrival
// rate lambda varies (exponential inter-arrivals).

#include <vector>

#include "bench_common.h"
#include "util/str.h"

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Figure 4 — effect of the query arrival rate lambda", settings);

  std::vector<double> lambdas = {0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
  if (settings.full) {
    lambdas.insert(lambdas.begin(), 0.01);
    lambdas.push_back(100.0);
  }

  std::vector<experiment::ExperimentConfig> points;
  for (double lambda : lambdas) {
    experiment::ExperimentConfig config = PaperDefaults(settings);
    config.lambda = lambda;
    points.push_back(config);
  }
  const auto sweep = MustCompareSweep(points, settings);

  experiment::TableReport table = LatencyCostTable(
      "(a) latency ±95% CI in hops; (b) cost relative to PCX", {"lambda"});
  for (size_t p = 0; p < lambdas.size(); ++p) {
    AddLatencyCostRow(&table, {util::StrFormat("%g", lambdas[p])}, sweep[p]);
  }
  table.Print();
  MaybeWriteCsv(table, "fig4_query_rate");
  PrintExpectation(
      "latency of every scheme falls as lambda grows, with DUP lowest "
      "throughout; relative cost of CUP/DUP improves with lambda — around "
      "80% at lambda=1, CUP bounded near ~50%, DUP well below CUP "
      "(reaching ~20%) at high rates.");
  return 0;
}
