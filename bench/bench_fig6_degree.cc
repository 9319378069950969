// Reproduces Figure 6: the effect of the maximum node degree D on (a)
// query latency and (b) cost relative to PCX.

#include <vector>

#include "bench_common.h"
#include "util/str.h"

int main() {
  using namespace dupnet;
  using namespace dupnet::bench;

  const BenchSettings settings = BenchSettings::FromEnv();
  PrintHeader("Figure 6 — effect of the maximum node degree D", settings);

  const std::vector<int> degrees = {2, 4, 6, 8, 10};
  std::vector<experiment::ExperimentConfig> points;
  for (int degree : degrees) {
    experiment::ExperimentConfig config = PaperDefaults(settings);
    config.max_degree = degree;
    points.push_back(config);
  }
  const auto sweep = MustCompareSweep(points, settings);

  experiment::TableReport table =
      LatencyCostTable("(a) latency; (b) cost relative to PCX", {"D"});
  for (size_t p = 0; p < degrees.size(); ++p) {
    AddLatencyCostRow(&table, {util::StrFormat("%d", degrees[p])}, sweep[p]);
  }
  table.Print();
  MaybeWriteCsv(table, "fig6_degree");
  PrintExpectation(
      "larger D means shallower trees, so every scheme's latency falls and "
      "PCX recovers some ground; DUP still has much lower cost than PCX and "
      "CUP even at D=10.");
  return 0;
}
