// Reproduces Figure 7: the effect of the Zipf skew theta on (a) query
// latency and (b) cost relative to PCX.

#include <vector>

#include "bench_common.h"
#include "util/str.h"

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Figure 7 — effect of the Zipf parameter theta", settings);

  const std::vector<double> thetas = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0};
  std::vector<experiment::ExperimentConfig> points;
  for (double theta : thetas) {
    experiment::ExperimentConfig config = PaperDefaults(settings);
    config.zipf_theta = theta;
    points.push_back(config);
  }
  const auto sweep = MustCompareSweep(points, settings);

  experiment::TableReport table =
      LatencyCostTable("(a) latency; (b) cost relative to PCX", {"theta"});
  for (size_t p = 0; p < thetas.size(); ++p) {
    AddLatencyCostRow(&table, {util::StrFormat("%g", thetas[p])}, sweep[p]);
  }
  table.Print();
  MaybeWriteCsv(table, "fig7_zipf");
  PrintExpectation(
      "DUP keeps a very low latency across the sweep and its cost advantage "
      "over PCX grows with theta (updates delivered to the hot spots with "
      "very low overhead); CUP relies on intermediate nodes that are less "
      "and less likely to access the index as theta grows, so it falls "
      "behind DUP.");
  return 0;
}
