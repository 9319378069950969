#ifndef DUP_EXPERIMENT_REALTIME_RUNNER_H_
#define DUP_EXPERIMENT_REALTIME_RUNNER_H_

#include "experiment/driver.h"
#include "net/udp_transport.h"
#include "util/status.h"

namespace dupnet::experiment {

/// Paces one SimulationDriver against the wall clock while draining a
/// UdpTransport — the execution loop of tools/dupd.
///
/// The discrete-event engine would otherwise fast-forward: a retry timer
/// 2 simulated seconds out fires "instantly" under engine().Run(), long
/// before the matching UDP ack has physically crossed the wire, and every
/// reliable class degenerates into give-ups. The runner instead advances
/// simulated time in lock-step with real time (`pace` simulated seconds
/// per wall second), pumping the socket between slices so inbound frames
/// are delivered at the simulated moment they actually arrived.
///
/// After the workload horizon the loop keeps pacing until the network is
/// quiescent — no unacked reliable transmission, nothing in flight, and a
/// settle window with no inbound frame (remote peers may still need our
/// acks). Only then does it let the engine drain the queue dry (the
/// leftover events are stale retry timers, all no-ops by now), leaving the
/// driver ready for AuditQuiescent().
struct RealtimeOptions {
  /// Simulated seconds advanced per wall-clock second.
  double pace = 50.0;
  /// Socket-pump blocking budget per loop iteration.
  int poll_ms = 1;
  /// Wall-clock quiet period (no inbound frame, locally quiescent) that
  /// ends the post-horizon drain.
  int settle_ms = 300;
  /// Hard wall-clock cap on the whole run; exceeding it is an error.
  int max_wall_ms = 120000;
};

class RealtimeRunner {
 public:
  /// `driver` must be Init()ed with `transport` installed; neither is
  /// owned.
  RealtimeRunner(SimulationDriver* driver, net::UdpTransport* transport,
                 const RealtimeOptions& options);

  /// Runs workload horizon + drain. On success the event queue is empty,
  /// the network quiescent and every shipped frame sent.
  util::Status Run(sim::SimTime horizon);

 private:
  SimulationDriver* driver_;
  net::UdpTransport* transport_;
  RealtimeOptions options_;
};

}  // namespace dupnet::experiment

#endif  // DUP_EXPERIMENT_REALTIME_RUNNER_H_
