#ifndef DUP_EXPERIMENT_DRIVER_H_
#define DUP_EXPERIMENT_DRIVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "audit/invariant_checker.h"
#include "core/adaptive_protocol.h"
#include "experiment/config.h"
#include "metrics/recorder.h"
#include "metrics/summary.h"
#include "net/overlay_network.h"
#include "proto/tree_protocol_base.h"
#include "sim/engine.h"
#include "topo/churn.h"
#include "trace/jsonl_writer.h"
#include "topo/tree.h"
#include "util/rng.h"
#include "workload/arrivals.h"
#include "workload/update_schedule.h"
#include "workload/zipf_selector.h"

namespace dupnet::experiment {

/// The protocol for `scheme` over `network` and `tree`: the one scheme
/// switch behind SimulationDriver and multikey::MultiKeySimulation.
std::unique_ptr<proto::TreeProtocolBase> MakeProtocol(
    Scheme scheme, net::OverlayNetwork* network, topo::IndexSearchTree* tree,
    const proto::ProtocolOptions& options, const proto::CupOptions& cup,
    const core::DupOptions& dup, const proto::AdaptiveOptions& adaptive);

/// Wires topology + workload + protocol + metrics into one simulation run.
///
/// One-shot use:
///   auto metrics = SimulationDriver::Run(config);
///
/// Instance use (tests, examples needing introspection):
///   SimulationDriver driver(config);
///   DUP_CHECK_OK(driver.Init());
///   driver.RunToCompletion();
///   auto metrics = driver.Collect();
///
/// The driver is a sim::EventTarget: workload arrivals, publishes, churn
/// and refresh ticks are typed events (no closure allocation per event).
class SimulationDriver : public sim::EventTarget {
 public:
  /// Builds, runs and collects in one call.
  static util::Result<metrics::RunMetrics> Run(const ExperimentConfig& config);

  explicit SimulationDriver(const ExperimentConfig& config);
  ~SimulationDriver() override;

  /// Typed event dispatch (workload/publish/churn/refresh timers).
  /// Internal — only the sim engine calls this.
  void OnSimEvent(uint32_t code, uint64_t arg) override;

  SimulationDriver(const SimulationDriver&) = delete;
  SimulationDriver& operator=(const SimulationDriver&) = delete;

  /// SPMD ownership gate for distributed execution (tools/dupd): every
  /// process builds the identical topology and workload schedule from the
  /// same seed, but only fires local queries for nodes the filter owns,
  /// and the root publish only in the process owning the root (the version
  /// counter still advances everywhere, keeping schedules aligned). Must
  /// be set before Init() — Init() itself fires the t=0 publish.
  void set_node_filter(std::function<bool(NodeId)> filter) {
    node_filter_ = std::move(filter);
  }

  /// Installs a physical transport (net::Transport) on the overlay network
  /// as soon as Init() constructs it, so even the t=0 publish traffic uses
  /// it. nullptr (default) keeps the pure simulated medium. Not owned;
  /// must outlive the driver. Must be set before Init().
  void set_transport(net::Transport* transport) { transport_ = transport; }

  /// Constructs topology, protocol and workload; schedules the initial
  /// events. Must be called exactly once before running.
  util::Status Init();

  /// Runs the simulation through warmup + measurement. With auditing
  /// enabled, finishes with the end-of-run audit: drain (recorder off, so
  /// RunMetrics stay bit-identical to an audit-off run), reconverge lossy /
  /// churny soft state, then a forced global invariant pass.
  void RunToCompletion();

  /// Advances simulated time to `until` (for incremental test control).
  void RunUntil(sim::SimTime until);

  /// Snapshot of the measured metrics.
  metrics::RunMetrics Collect() const;

  // --- Introspection -----------------------------------------------------
  sim::Engine& engine() { return engine_; }
  topo::IndexSearchTree& tree() { return *tree_; }
  proto::TreeProtocolBase& protocol() { return *protocol_; }
  metrics::Recorder& recorder() { return recorder_; }
  net::OverlayNetwork& network() { return *network_; }
  /// Non-null only when config.trace_path is set.
  trace::JsonlTraceWriter* trace_writer() { return trace_writer_.get(); }
  /// Non-null only when config.audit_mode != kOff.
  audit::InvariantChecker* audit_checker() { return audit_checker_.get(); }
  /// One-shot invariant audit of the current state (works at any
  /// audit_mode, including kOff). Requires a drained event queue.
  util::Status AuditQuiescent() const {
    return audit::AuditQuiescent(*tree_, *network_, *protocol_);
  }
  /// Non-null when the configured scheme is DUP or adaptive (the adaptive
  /// protocol is-a DupProtocol; the alias lets the end-of-run soft-state
  /// prune and DUP introspection work for both).
  core::DupProtocol* dup_protocol() { return dup_protocol_; }
  /// Non-null only when the configured scheme is adaptive.
  core::AdaptiveProtocol* adaptive_protocol() { return adaptive_protocol_; }
  const std::vector<NodeId>& live_nodes() const { return live_nodes_; }
  uint64_t churn_events_applied() const { return churn_events_applied_; }

 private:
  /// Typed event codes (OnSimEvent). kEventChurnDetect's arg carries the
  /// crashed node's id; the others take no argument.
  static constexpr uint32_t kEventWarmupEnd = 0;
  static constexpr uint32_t kEventQuery = 1;
  static constexpr uint32_t kEventPublish = 2;
  static constexpr uint32_t kEventChurn = 3;
  static constexpr uint32_t kEventChurnDetect = 4;
  static constexpr uint32_t kEventRefresh = 5;
  static constexpr uint32_t kEventAudit = 6;
  static constexpr uint32_t kEventPhase = 7;

  void ScheduleNextQuery();
  void ScheduleNextPublish();
  void ScheduleNextChurn();
  void ScheduleNextRefresh();
  void ScheduleNextAudit();
  void FireQuery();
  void FirePublish();
  void FireChurn();
  void FireRefresh();
  void FireAudit();
  void FirePhase();
  /// End-of-run audit: drains the queue with the recorder disabled, runs
  /// one reconvergence round (lossless refresh + DUP keep-alive expiry)
  /// when faults or churn were active, then a forced global check.
  void FinalizeAudit();
  /// Applies removal of `node` (leave or detected failure).
  void RemoveNode(NodeId node);
  void RemoveFromLive(NodeId node);

  ExperimentConfig config_;
  util::Rng rng_;
  sim::Engine engine_;
  metrics::Recorder recorder_;
  std::function<bool(NodeId)> node_filter_;
  net::Transport* transport_ = nullptr;

  std::unique_ptr<topo::IndexSearchTree> tree_;
  std::unique_ptr<net::OverlayNetwork> network_;
  std::unique_ptr<trace::JsonlTraceWriter> trace_writer_;
  std::unique_ptr<proto::TreeProtocolBase> protocol_;
  std::unique_ptr<audit::InvariantChecker> audit_checker_;
  /// Aliases protocol_ when the scheme is DUP or adaptive.
  core::DupProtocol* dup_protocol_ = nullptr;
  /// Aliases protocol_ when the scheme is adaptive.
  core::AdaptiveProtocol* adaptive_protocol_ = nullptr;

  std::unique_ptr<workload::ArrivalProcess> arrivals_;
  std::unique_ptr<workload::ZipfNodeSelector> zipf_;
  std::optional<workload::UpdateSchedule> schedule_;
  IndexVersion next_version_ = 1;

  /// Current query-rate multiplier (config.phases); 1.0 outside phased
  /// runs, where dividing by it is a bitwise no-op.
  double lambda_scale_ = 1.0;
  size_t next_phase_ = 0;

  /// Workload generators stop seeding new events past this time so the
  /// queue can drain (engine().Run() terminates once in-flight traffic
  /// settles).
  sim::SimTime horizon_end_ = 0.0;

  std::optional<topo::ChurnPlanner> churn_planner_;
  std::vector<NodeId> live_nodes_;
  std::unordered_set<NodeId> pending_failures_;
  NodeId next_fresh_id_ = 0;
  uint64_t churn_events_applied_ = 0;

  bool initialized_ = false;
};

}  // namespace dupnet::experiment

#endif  // DUP_EXPERIMENT_DRIVER_H_
