// Exercises DUP under node churn: joins, graceful departures and crash
// failures (paper Section III-C), which the paper describes but does not
// evaluate. Prints metrics plus the post-run propagation-state audit.
//
//   ./churn_simulation nodes=512 join=0.02 leave=0.01 fail=0.01 lambda=2

#include <cstdio>

#include "experiment/config.h"
#include "experiment/config_keys.h"
#include "experiment/driver.h"
#include "util/check.h"
#include "util/config.h"

int main(int argc, char** argv) {
  using namespace dupnet;

  auto args = util::ConfigMap::FromArgs(argc, argv);
  DUP_CHECK(args.ok()) << args.status().ToString();

  experiment::ExperimentConfig config;
  config.scheme = experiment::Scheme::kDup;
  config.num_nodes = 512;
  config.lambda = 2.0;
  config.warmup_time = 3600.0;
  config.measure_time = 14160.0;
  config.churn.join_rate = 0.02;
  config.churn.leave_rate = 0.01;
  config.churn.fail_rate = 0.01;
  const experiment::KeySchema schema{
      "churn_simulation",
      {"nodes", "lambda", "seed", "warmup", "measure", "join", "leave",
       "fail", "detect"},
      {{"root_failure", "whether the authority itself may crash [1]"}}};
  DUP_CHECK_OK(experiment::ApplyKeys(schema, *args, &config));
  config.churn.allow_root_failure = args->GetBool("root_failure", true);
  // Checkpointed invariant auditing (docs/invariants.md): RunToCompletion
  // ends with a reconvergence round and a forced global audit.
  config.audit_mode = audit::AuditMode::kCheckpoints;

  std::printf("running: %s\n", config.ToString().c_str());
  experiment::SimulationDriver driver(config);
  DUP_CHECK_OK(driver.Init());
  driver.RunToCompletion();

  const auto metrics = driver.Collect();
  std::printf("\nsurvived %llu churn events; network now has %zu nodes\n",
              static_cast<unsigned long long>(driver.churn_events_applied()),
              driver.tree().size());
  std::printf("  average query latency : %.4f hops\n",
              metrics.avg_latency_hops);
  std::printf("  average query cost    : %.4f hops/query\n",
              metrics.avg_cost_hops);
  std::printf("  queries measured      : %llu\n",
              static_cast<unsigned long long>(metrics.queries));
  std::printf("  messages dropped      : %llu (in-flight to crashed nodes)\n",
              static_cast<unsigned long long>(
                  driver.network().messages_dropped()));

  DUP_CHECK_OK(driver.tree().Validate());
  DUP_CHECK_OK(driver.audit_checker()->ToStatus());
  std::printf(
      "\ntopology and DUP propagation state audits passed (%s): every "
      "interested\nnode is still reachable from the authority after churn.\n",
      driver.audit_checker()->Summary().c_str());
  return 0;
}
