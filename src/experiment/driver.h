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

/// Wires topology + workload + protocol + metrics into one simulation run:
/// the paper's model of one index, with one dynamic tree, one Zipf query
/// stream and one TTL-aligned publish schedule.
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
/// Hosted use (multikey::MultiKeySimulation, one driver per key): the
/// driver runs on an engine its host owns and drives, shared with other
/// keys' drivers (see the hosted constructor).
///
/// The driver is a sim::EventTarget: workload arrivals, publishes, churn
/// and refresh ticks are typed events (no closure allocation per event),
/// scheduled only strictly before warmup + measure.
class SimulationDriver : public sim::EventTarget {
 public:
  /// Builds, runs and collects in one call.
  static util::Result<metrics::RunMetrics> Run(const ExperimentConfig& config);

  explicit SimulationDriver(const ExperimentConfig& config);

  /// Hosted construction: the driver schedules its events on `engine`,
  /// which the caller owns and runs to warmup + measure, and simulates
  /// over the pre-built `tree` instead of building config.topology.
  /// config.seed seeds the driver's one RNG stream. The first version is
  /// published by an event at `publish_offset` rather than inside Init(),
  /// later ones every period after it, and queries drawn before that
  /// first publish are dropped. Churn, auditing and tracing need the
  /// whole engine and are not supported here.
  SimulationDriver(const ExperimentConfig& config, sim::Engine* engine,
                   topo::IndexSearchTree tree, sim::SimTime publish_offset);
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
  /// churny soft state, then a forced global invariant pass. Not for a
  /// hosted driver, whose host runs the engine.
  void RunToCompletion();

  /// Advances simulated time to `until` (for incremental test control).
  /// Not for a hosted driver.
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
  /// The live node ids; kept only when churn is enabled (empty otherwise).
  const std::vector<NodeId>& live_nodes() const { return live_nodes_; }
  uint64_t churn_events_applied() const { return churn_events_applied_; }
  /// Root publishes fired so far, warm-up included.
  uint64_t publishes() const { return next_version_ - 1; }

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

  /// Schedules `code` at `time` iff `time` lands strictly before the
  /// horizon; every workload, churn, refresh and audit event goes through
  /// here.
  void ScheduleBeforeHorizon(sim::SimTime time, uint32_t code);
  /// Builds config_.topology into tree_ (standalone drivers only).
  util::Status BuildTopology();
  /// Issue time of version v: publish_offset_ plus the schedule's.
  sim::SimTime IssueTime(IndexVersion v) const;
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
  /// The engine of a standalone driver; null when hosted.
  std::unique_ptr<sim::Engine> owned_engine_;
  sim::Engine& engine_;
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
  /// Shifts the whole publish schedule; 0 for a standalone driver.
  sim::SimTime publish_offset_ = 0.0;
  IndexVersion next_version_ = 1;

  /// Current query-rate multiplier (config.phases); 1.0 outside phased
  /// runs, where dividing by it is a bitwise no-op.
  double lambda_scale_ = 1.0;
  size_t next_phase_ = 0;

  /// Workload generators schedule nothing at or past this time, so the
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
