#include "experiment/driver.h"

#include <algorithm>

#include "can/space.h"
#include "chord/tree_builder.h"
#include "pastry/pastry.h"
#include "proto/cup.h"
#include "proto/pcx.h"
#include "topo/tree_generator.h"
#include "util/check.h"

namespace dupnet::experiment {

using util::Result;
using util::Status;

SimulationDriver::SimulationDriver(const ExperimentConfig& config)
    : config_(config), rng_(config.seed) {}

SimulationDriver::~SimulationDriver() = default;

std::unique_ptr<proto::TreeProtocolBase> MakeProtocol(
    Scheme scheme, net::OverlayNetwork* network, topo::IndexSearchTree* tree,
    const proto::ProtocolOptions& options, const proto::CupOptions& cup,
    const core::DupOptions& dup, const proto::AdaptiveOptions& adaptive) {
  switch (scheme) {
    case Scheme::kPcx:
      return std::make_unique<proto::PcxProtocol>(network, tree, options);
    case Scheme::kCup:
      return std::make_unique<proto::CupProtocol>(network, tree, options, cup);
    case Scheme::kDup:
      return std::make_unique<core::DupProtocol>(network, tree, options, dup);
    case Scheme::kAdaptive:
      return std::make_unique<core::AdaptiveProtocol>(network, tree, options,
                                                      dup, adaptive);
  }
  DUP_CHECK(false) << "unknown scheme";
  return nullptr;
}

Result<metrics::RunMetrics> SimulationDriver::Run(
    const ExperimentConfig& config) {
  SimulationDriver driver(config);
  DUP_RETURN_IF_ERROR(driver.Init());
  driver.RunToCompletion();
  // Invariant violations fail the run outright (CI-gating property) — the
  // collected metrics would describe a structurally corrupt simulation.
  if (driver.audit_checker_ != nullptr &&
      driver.audit_checker_->total_violations() > 0) {
    return driver.audit_checker_->ToStatus();
  }
  return driver.Collect();
}

Status SimulationDriver::Init() {
  DUP_CHECK(!initialized_);
  DUP_RETURN_IF_ERROR(config_.Validate());
  initialized_ = true;

  // Must precede the first ScheduleAt below: the queue only accepts a
  // scheduler change while empty.
  engine_.set_scheduler(config_.scheduler);

  // --- Topology ---------------------------------------------------------
  switch (config_.topology) {
    case TopologyKind::kRandomTree: {
      topo::TreeGeneratorOptions gen;
      gen.num_nodes = config_.num_nodes;
      gen.max_degree = config_.max_degree;
      auto tree = topo::TreeGenerator::Generate(gen, &rng_);
      DUP_RETURN_IF_ERROR(tree.status());
      tree_ = std::make_unique<topo::IndexSearchTree>(std::move(*tree));
      break;
    }
    case TopologyKind::kChord: {
      auto ring = chord::ChordRing::Create(config_.num_nodes);
      DUP_RETURN_IF_ERROR(ring.status());
      auto tree =
          chord::ChordTreeBuilder::BuildForKeyName(*ring, "the-index");
      DUP_RETURN_IF_ERROR(tree.status());
      tree_ = std::make_unique<topo::IndexSearchTree>(std::move(*tree));
      break;
    }
    case TopologyKind::kCan: {
      auto space = can::CanSpace::Create(config_.num_nodes, config_.can_dims,
                                         config_.seed ^ 0xCA11AB1Eu);
      DUP_RETURN_IF_ERROR(space.status());
      auto tree = space->BuildIndexTreeForKeyName("the-index");
      DUP_RETURN_IF_ERROR(tree.status());
      tree_ = std::make_unique<topo::IndexSearchTree>(std::move(*tree));
      break;
    }
    case TopologyKind::kPastry: {
      auto network = pastry::PastryNetwork::Create(config_.num_nodes);
      DUP_RETURN_IF_ERROR(network.status());
      auto tree = network->BuildIndexTreeForKeyName("the-index");
      DUP_RETURN_IF_ERROR(tree.status());
      tree_ = std::make_unique<topo::IndexSearchTree>(std::move(*tree));
      break;
    }
  }
  live_nodes_.resize(config_.num_nodes);
  for (size_t i = 0; i < config_.num_nodes; ++i) {
    live_nodes_[i] = static_cast<NodeId>(i);
  }
  next_fresh_id_ = static_cast<NodeId>(config_.num_nodes);

  // --- Network + protocol ------------------------------------------------
  network_ = std::make_unique<net::OverlayNetwork>(
      &engine_, &rng_, &recorder_, config_.hop_latency_mean);
  network_->set_faults(config_.faults);
  if (transport_ != nullptr) network_->set_transport(transport_);
  if (config_.prealloc.any()) {
    engine_.ReserveEvents(config_.prealloc.event_slots);
    network_->Prewarm(config_.prealloc.message_slots,
                      config_.prealloc.route_capacity,
                      config_.prealloc.pair_clock_slots,
                      config_.prealloc.max_node_id);
  }
  if (!config_.trace_path.empty()) {
    auto sampling = trace::TraceSampling::Parse(config_.trace_sample);
    DUP_RETURN_IF_ERROR(sampling.status());
    auto writer = trace::JsonlTraceWriter::Open(config_.trace_path, *sampling);
    DUP_RETURN_IF_ERROR(writer.status());
    trace_writer_ = std::move(*writer);
    network_->set_observer(trace_writer_.get());
  }
  proto::ProtocolOptions options;
  options.ttl = config_.ttl;
  options.threshold_c = config_.threshold_c;
  options.cache_passing_replies = config_.cache_passing_replies;
  options.per_copy_ttl = config_.per_copy_ttl;
  options.count_forwarded_queries = config_.count_forwarded_queries;
  protocol_ = MakeProtocol(config_.scheme, network_.get(), tree_.get(),
                           options, config_.cup, config_.dup, config_.adaptive);
  // The adaptive protocol is-a DupProtocol: aliasing it as dup_protocol_
  // gives the end-of-run reconvergence (FinalizeAudit's refresh + prune) the
  // DUP soft-state cleanup for free.
  dup_protocol_ = dynamic_cast<core::DupProtocol*>(protocol_.get());
  adaptive_protocol_ = dynamic_cast<core::AdaptiveProtocol*>(protocol_.get());
  network_->set_sink(protocol_.get());

  // --- Workload -----------------------------------------------------------
  auto arrivals = workload::MakeArrivalProcess(
      std::string(ArrivalToString(config_.arrival)), config_.lambda,
      config_.pareto_alpha);
  DUP_RETURN_IF_ERROR(arrivals.status());
  arrivals_ = std::move(*arrivals);

  util::Rng perm_rng = rng_.Fork();
  zipf_ = std::make_unique<workload::ZipfNodeSelector>(
      live_nodes_, config_.zipf_theta, &perm_rng);

  auto schedule =
      workload::UpdateSchedule::Create(config_.ttl, config_.push_lead);
  DUP_RETURN_IF_ERROR(schedule.status());
  schedule_ = *schedule;

  // --- Initial events -----------------------------------------------------
  horizon_end_ = config_.warmup_time + config_.measure_time;
  recorder_.set_enabled(false);  // Warm-up.
  engine_.ScheduleAt(config_.warmup_time, this, kEventWarmupEnd);
  FirePublish();  // Version 1 at t = 0.
  ScheduleNextQuery();
  if (!config_.phases.empty() && config_.phases[0].at < horizon_end_) {
    engine_.ScheduleAt(config_.phases[0].at, this, kEventPhase);
  }
  if (config_.churn.enabled()) {
    churn_planner_.emplace(config_.churn);
    ScheduleNextChurn();
  }
  if (config_.faults.refresh_interval > 0.0) {
    ScheduleNextRefresh();
  }
  if (config_.audit_mode != audit::AuditMode::kOff) {
    audit::InvariantChecker::Options audit_options;
    // Under churn or loss a quiescent moment can still hold state that is
    // legitimately awaiting soft-state repair; only force-checked (post-
    // reconvergence) global passes are meaningful there.
    audit_options.allow_mid_global =
        !config_.churn.enabled() && config_.faults.loss_rate == 0.0;
    audit_checker_ = std::make_unique<audit::InvariantChecker>(
        tree_.get(), network_.get(), protocol_.get(), trace_writer_.get(),
        audit_options);
    if (config_.audit_mode == audit::AuditMode::kParanoid) {
      engine_.set_post_event_hook([this] { audit_checker_->CheckNow(); });
    } else {
      ScheduleNextAudit();
    }
  }
  return Status::OK();
}

void SimulationDriver::RunToCompletion() {
  DUP_CHECK(initialized_);
  engine_.RunUntil(config_.warmup_time + config_.measure_time);
  if (audit_checker_ != nullptr) FinalizeAudit();
}

void SimulationDriver::RunUntil(sim::SimTime until) {
  DUP_CHECK(initialized_);
  engine_.RunUntil(until);
}

metrics::RunMetrics SimulationDriver::Collect() const {
  return metrics::RunMetrics::FromRecorder(recorder_);
}

void SimulationDriver::OnSimEvent(uint32_t code, uint64_t arg) {
  switch (code) {
    case kEventWarmupEnd:
      recorder_.Reset();
      recorder_.set_enabled(true);
      break;
    case kEventQuery:
      FireQuery();
      break;
    case kEventPublish:
      FirePublish();
      break;
    case kEventChurn:
      FireChurn();
      break;
    case kEventChurnDetect: {
      const NodeId victim = static_cast<NodeId>(arg);
      pending_failures_.erase(victim);
      RemoveNode(victim);
      break;
    }
    case kEventRefresh:
      FireRefresh();
      break;
    case kEventAudit:
      FireAudit();
      break;
    case kEventPhase:
      FirePhase();
      break;
    default:
      DUP_CHECK(false) << "unknown driver event code " << code;
  }
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

void SimulationDriver::ScheduleNextQuery() {
  if (engine_.Now() >= horizon_end_) return;
  // Dividing by lambda_scale_ == 1.0 is a bitwise no-op, so runs without
  // workload phases stay bit-identical to pre-phase builds.
  engine_.ScheduleAfter(arrivals_->NextInterArrival(&rng_) / lambda_scale_,
                        this, kEventQuery);
}

void SimulationDriver::FireQuery() {
  ScheduleNextQuery();
  const NodeId node = zipf_->Sample(&rng_);
  // A crashed (not yet replaced) node issues no queries.
  if (network_->IsDown(node) || !tree_->Contains(node)) return;
  // SPMD: a query fires only in the process that owns its issuing node.
  if (node_filter_ && !node_filter_(node)) return;
  protocol_->OnLocalQuery(node);
}

void SimulationDriver::FirePhase() {
  DUP_CHECK(next_phase_ < config_.phases.size());
  const ExperimentConfig::WorkloadPhase& phase = config_.phases[next_phase_];
  lambda_scale_ = phase.lambda_scale;
  if (phase.zipf_shift > 0) zipf_->RotateRanks(phase.zipf_shift);
  ++next_phase_;
  if (next_phase_ < config_.phases.size() &&
      config_.phases[next_phase_].at < horizon_end_) {
    engine_.ScheduleAt(config_.phases[next_phase_].at, this, kEventPhase);
  }
}

// ---------------------------------------------------------------------------
// Authority publishes.
// ---------------------------------------------------------------------------

void SimulationDriver::ScheduleNextPublish() {
  if (config_.update_mode == UpdateMode::kHostDriven) {
    // The index changes when hosting nodes change: Poisson update times,
    // unsynchronised with cache expiries.
    const sim::SimTime next =
        engine_.Now() + rng_.Exponential(1.0 / config_.host_change_rate);
    if (next > horizon_end_) return;
    engine_.ScheduleAt(next, this, kEventPublish);
    return;
  }
  if (schedule_->IssueTime(next_version_) > horizon_end_) return;
  engine_.ScheduleAt(schedule_->IssueTime(next_version_), this, kEventPublish);
}

void SimulationDriver::FirePublish() {
  const IndexVersion version = next_version_++;
  const sim::SimTime expiry = config_.update_mode == UpdateMode::kHostDriven
                                  ? engine_.Now() + config_.ttl
                                  : schedule_->ExpiryOf(version);
  // SPMD: only the root's owner publishes; the version counter and the
  // schedule advance identically in every process regardless.
  if (!node_filter_ || node_filter_(tree_->root())) {
    protocol_->OnRootPublish(version, expiry);
  }
  ScheduleNextPublish();
}

// ---------------------------------------------------------------------------
// Churn.
// ---------------------------------------------------------------------------

void SimulationDriver::ScheduleNextChurn() {
  if (engine_.Now() >= horizon_end_) return;
  engine_.ScheduleAfter(churn_planner_->NextInterval(&rng_), this,
                        kEventChurn);
}

void SimulationDriver::FireChurn() {
  ScheduleNextChurn();
  auto action =
      churn_planner_->Plan(*tree_, live_nodes_, next_fresh_id_, &rng_);
  if (!action.ok()) return;  // Nothing possible right now.
  // Nodes already crashed but not yet detected cannot act again.
  if (action->subject != next_fresh_id_ &&
      pending_failures_.count(action->subject) > 0) {
    return;
  }
  if ((action->parent != kInvalidNode &&
       pending_failures_.count(action->parent) > 0) ||
      (action->child != kInvalidNode &&
       pending_failures_.count(action->child) > 0)) {
    return;  // Do not build onto a dying edge.
  }

  switch (action->kind) {
    case topo::ChurnAction::Kind::kJoinLeaf: {
      DUP_CHECK_OK(tree_->AttachLeaf(action->parent, action->subject));
      live_nodes_.push_back(action->subject);
      zipf_->AddNode(action->subject);
      protocol_->OnLeafJoined(action->subject, action->parent);
      ++next_fresh_id_;
      break;
    }
    case topo::ChurnAction::Kind::kJoinSplit: {
      DUP_CHECK_OK(
          tree_->SplitEdge(action->parent, action->child, action->subject));
      live_nodes_.push_back(action->subject);
      zipf_->AddNode(action->subject);
      protocol_->OnSplitJoined(action->subject, action->parent,
                               action->child);
      ++next_fresh_id_;
      break;
    }
    case topo::ChurnAction::Kind::kLeave: {
      protocol_->OnGracefulLeave(action->subject);
      RemoveNode(action->subject);
      break;
    }
    case topo::ChurnAction::Kind::kFail: {
      const NodeId victim = action->subject;
      network_->SetNodeDown(victim, true);
      pending_failures_.insert(victim);
      engine_.ScheduleAfter(config_.churn.detect_delay, this,
                            kEventChurnDetect, victim);
      break;
    }
  }
  ++churn_events_applied_;
}

// ---------------------------------------------------------------------------
// Soft-state refresh.
// ---------------------------------------------------------------------------

void SimulationDriver::ScheduleNextRefresh() {
  // Scheduled by the driver rather than by the protocols themselves so the
  // event queue still drains at the horizon (a protocol-internal
  // self-rescheduling timer would keep engine().Run() alive forever).
  if (engine_.Now() >= horizon_end_) return;
  engine_.ScheduleAfter(config_.faults.refresh_interval, this, kEventRefresh);
}

void SimulationDriver::FireRefresh() {
  ScheduleNextRefresh();
  protocol_->OnSoftStateRefresh();
}

// ---------------------------------------------------------------------------
// Invariant auditing.
// ---------------------------------------------------------------------------

void SimulationDriver::ScheduleNextAudit() {
  if (engine_.Now() >= horizon_end_) return;
  const double interval =
      config_.audit_interval > 0.0 ? config_.audit_interval : config_.ttl;
  engine_.ScheduleAfter(interval, this, kEventAudit);
}

void SimulationDriver::FireAudit() {
  ScheduleNextAudit();
  audit_checker_->CheckNow();
}

void SimulationDriver::FinalizeAudit() {
  // Everything past the horizon is audit bookkeeping: freeze the metrics so
  // RunMetrics stay bit-identical to an audit-off run, then drain whatever
  // was still in flight.
  recorder_.set_enabled(false);
  engine_.Run();
  const bool needs_reconvergence = config_.churn.enabled() ||
                                   config_.faults.active() ||
                                   config_.faults.refresh_interval > 0.0;
  if (needs_reconvergence) {
    // One lossless soft-state round: every survivor re-announces, then DUP
    // expires the keep-alives nobody refreshed (the orphans left by lost
    // messages that exhausted their retries). This is the reconvergence
    // after which the paper's soft-state argument promises a consistent
    // tree — exactly what the forced global check below asserts.
    network_->set_faults(net::FaultConfig());
    const sim::SimTime round_start = engine_.Now();
    protocol_->OnSoftStateRefresh();
    engine_.Run();
    if (dup_protocol_ != nullptr) {
      dup_protocol_->PruneEntriesNotAnnouncedSince(round_start);
      engine_.Run();
      // Message-free local reconciliation of the delegation soft state (a
      // retransmitted assign can resurrect a revoked relay duty).
      dup_protocol_->ReconcileRelays();
    }
  }
  audit_checker_->CheckNow(/*force_global=*/true);
}

void SimulationDriver::RemoveNode(NodeId node) {
  if (!tree_->Contains(node)) return;
  const bool was_root = node == tree_->root();
  const NodeId former_parent = was_root ? kInvalidNode : tree_->Parent(node);
  const std::vector<NodeId> former_children = tree_->Children(node);
  auto replacement = tree_->RemoveNode(node);
  DUP_CHECK(replacement.ok()) << replacement.status().ToString();
  network_->SetNodeDown(node, true);
  RemoveFromLive(node);
  zipf_->ReplaceNode(node, *replacement);
  protocol_->OnNodeRemoved(node, former_parent, former_children, was_root,
                           tree_->root());
  if (was_root) {
    // Paper failure case 5: the promoted authority refreshes the index and
    // restarts propagation with the current version.
    protocol_->OnRootPublish(protocol_->latest_version(),
                             protocol_->latest_expiry());
  }
}

void SimulationDriver::RemoveFromLive(NodeId node) {
  auto it = std::find(live_nodes_.begin(), live_nodes_.end(), node);
  DUP_CHECK(it != live_nodes_.end());
  *it = live_nodes_.back();
  live_nodes_.pop_back();
}

}  // namespace dupnet::experiment
