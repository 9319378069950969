#ifndef DUP_EXPERIMENT_CONFIG_H_
#define DUP_EXPERIMENT_CONFIG_H_

#include <string>
#include <string_view>
#include <vector>

#include "audit/audit_mode.h"
#include "core/dup_protocol.h"
#include "net/fault_injection.h"
#include "proto/adaptive_controller.h"
#include "proto/cup.h"
#include "sim/event_queue.h"
#include "topo/churn.h"
#include "util/status.h"

namespace dupnet::experiment {

/// Which consistency scheme a run simulates. kAdaptive runs the per-key
/// regime controller (core::AdaptiveProtocol) that migrates the key
/// between the three static schemes online.
enum class Scheme { kPcx, kCup, kDup, kAdaptive };

/// How the index search tree is obtained.
enum class TopologyKind {
  kRandomTree,  ///< Paper's synthetic model (uniform [1, D] children).
  kChord,       ///< Derived from a real Chord ring's lookup paths.
};

/// Query inter-arrival process.
enum class ArrivalKind { kExponential, kPareto };

/// When the authority issues new index versions.
enum class UpdateMode {
  /// The paper's evaluation setting: a new version exactly push_lead
  /// seconds before the previous one expires (period = ttl - push_lead).
  kTtlAligned,
  /// The paper's system model (Section II-A): the index changes whenever
  /// the hosting nodes change — "data is inserted or removed from nodes in
  /// the network from time to time" — modelled as a Poisson process of
  /// rate `host_change_rate`. Updates are no longer synchronised with TTL
  /// expiry, so pushes can arrive at any phase of the cache lifetime.
  kHostDriven,
};

/// Physical medium for overlay transmissions (net::Transport).
enum class TransportKind {
  /// Pure in-memory simulated medium — the default, and the only mode the
  /// golden RunMetrics contract applies to.
  kSim,
  /// Loopback UDP socket: the process owns every node but each frame still
  /// crosses a real socket in net::wire format, so protocol state is built
  /// entirely from decoded bytes (paced against the wall clock; for wire
  /// and audit validation, not metric comparisons).
  kWire,
};

std::string_view TransportKindToString(TransportKind kind);
util::Result<TransportKind> ParseTransportKind(std::string_view name);

std::string_view UpdateModeToString(UpdateMode mode);
util::Result<UpdateMode> ParseUpdateMode(std::string_view name);

std::string_view SchemeToString(Scheme scheme);
util::Result<Scheme> ParseScheme(std::string_view name);
std::string_view TopologyToString(TopologyKind kind);
util::Result<TopologyKind> ParseTopology(std::string_view name);
std::string_view ArrivalToString(ArrivalKind kind);
util::Result<ArrivalKind> ParseArrival(std::string_view name);
std::string_view SchedulerToString(sim::SchedulerKind kind);
util::Result<sim::SchedulerKind> ParseScheduler(std::string_view name);

/// Full description of one simulation run. Defaults follow the paper's
/// Table I; the measurement horizon is scaled down from the paper's
/// 180,000 s (see DESIGN.md §2) and can be restored via the bench
/// harness's DUP_BENCH_FULL=1.
struct ExperimentConfig {
  Scheme scheme = Scheme::kDup;
  TopologyKind topology = TopologyKind::kRandomTree;

  /// Network size n (paper default 4096).
  size_t num_nodes = 4096;
  /// Maximum node degree D of the index search tree (paper default 4).
  int max_degree = 4;

  /// Mean query arrival rate lambda, queries/second network-wide.
  double lambda = 1.0;
  ArrivalKind arrival = ArrivalKind::kExponential;
  /// Pareto shape (only for ArrivalKind::kPareto; paper uses 1.05, 1.20).
  double pareto_alpha = 1.2;
  /// Zipf skew theta of the per-node query distribution.
  double zipf_theta = 0.8;

  /// Interest threshold c (paper default 6).
  uint32_t threshold_c = 6;
  /// Whether forwarded requests count toward interest (see
  /// proto::ProtocolOptions::count_forwarded_queries; false is the
  /// own-queries-only ablation).
  bool count_forwarded_queries = true;
  /// Whether each cache restarts the TTL timer on install (default) or all
  /// copies of a version expire simultaneously (ablation; see
  /// proto::ProtocolOptions::per_copy_ttl).
  bool per_copy_ttl = true;
  /// Whether passing replies populate intermediate caches (ablation; see
  /// proto::ProtocolOptions::cache_passing_replies).
  bool cache_passing_replies = false;
  /// Index TTL in seconds (paper: 60 minutes).
  double ttl = 3600.0;
  /// The root publishes this many seconds before the previous version
  /// expires (paper: one minute).
  double push_lead = 60.0;
  /// Update timing (see UpdateMode).
  UpdateMode update_mode = UpdateMode::kTtlAligned;
  /// kHostDriven: mean index changes per second at the authority.
  double host_change_rate = 1.0 / 3540.0;
  /// Mean per-hop message latency (paper: exponential, 0.1 s).
  double hop_latency_mean = 0.1;

  /// Measurement protocol: metrics reset after `warmup_time`, then
  /// accumulate for `measure_time` seconds.
  double warmup_time = 7200.0;
  double measure_time = 36000.0;

  /// DUP-specific options (shortcut ablation, piggybacked subscribes).
  core::DupOptions dup;

  /// CUP-specific options (push-decision policy).
  proto::CupOptions cup;

  /// Adaptive-controller options (Scheme::kAdaptive only): regime entry /
  /// exit bars on the queries-per-update ratio, hysteresis and dwell.
  proto::AdaptiveOptions adaptive;

  /// Piecewise workload modulation for flash-crowd / decay scenarios. At
  /// each phase boundary the driver scales the query arrival rate by
  /// `lambda_scale` (relative to the base `lambda`) and rotates the Zipf
  /// popularity ranking by `zipf_shift` positions, drifting the hot set
  /// deterministically (zero extra RNG draws — an empty `phases` list is
  /// bit-identical to a run before this feature existed). Boundaries are
  /// absolute sim times and must be strictly ascending.
  struct WorkloadPhase {
    sim::SimTime at = 0.0;
    double lambda_scale = 1.0;
    size_t zipf_shift = 0;
  };
  std::vector<WorkloadPhase> phases;

  /// Topology dynamics (all rates 0 = static network, the paper's
  /// evaluation setting).
  topo::ChurnConfig churn;

  /// Network fault injection and reliable delivery (all off by default,
  /// which is a strict no-op — see docs/fault-injection.md). The
  /// refresh_interval member also drives the protocols' soft-state
  /// subscription refresh, scheduled by the driver.
  net::FaultConfig faults;

  uint64_t seed = 42;

  /// Physical transport backend (the transport= key).
  TransportKind transport = TransportKind::kSim;
  /// TransportKind::kWire only: loopback UDP port for the frame socket.
  int wire_port = 17405;
  /// TransportKind::kWire only: simulated seconds advanced per wall-clock
  /// second while pacing the engine against the real socket.
  double wire_pace = 200.0;
  /// TransportKind::kWire only: when non-empty, every transmitted and
  /// received frame is appended here in tools/dupwire's binary log format.
  std::string wire_frame_log;

  /// Event-queue scheduler backing the engine. Calendar (amortised O(1)
  /// push/pop) is the default; the binary heap is kept as the reference
  /// implementation. Both produce bit-identical RunMetrics — the knob
  /// exists for A/B benchmarking (bench_scale) and equivalence tests.
  sim::SchedulerKind scheduler = sim::SchedulerKind::kCalendar;

  /// When non-empty, the driver attaches a trace::JsonlTraceWriter to the
  /// overlay network and streams every observed send/deliver/drop there
  /// (sampled per message class, see trace_sample). Batch runners derive a
  /// unique ".p<point>.r<rep>" path per run so parallel replications never
  /// share a file. Purely observational: tracing performs no RNG draws and
  /// cannot perturb RunMetrics.
  std::string trace_path;
  /// Per-class decimation for the streamed trace, in
  /// trace::TraceSampling::Parse form: "N" or "req,rep,push,ctl" (keep
  /// every Nth event of each class; 0 drops a class).
  std::string trace_sample = "1";

  /// Protocol invariant auditing (audit::InvariantChecker). kCheckpoints
  /// audits every audit_interval sim-seconds and at end of run (after
  /// reconvergence in lossy/churny runs); kParanoid re-checks after every
  /// simulation event (tests). Purely observational — the checker draws no
  /// RNG samples and RunMetrics stay bit-identical to an audit-off run —
  /// but violations make SimulationDriver::Run return Internal.
  audit::AuditMode audit_mode = audit::AuditMode::kOff;
  /// Checkpoint spacing in sim-seconds; 0 means one checkpoint per TTL.
  double audit_interval = 0.0;

  /// Rejects inconsistent parameter combinations.
  util::Status Validate() const;

  /// One-line description for logs and reports: key=value pairs of the
  /// config key table (Table I's parameters, then every other key that
  /// differs from its default).
  std::string ToString() const;
};

}  // namespace dupnet::experiment

#endif  // DUP_EXPERIMENT_CONFIG_H_
