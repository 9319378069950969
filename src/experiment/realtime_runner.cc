#include "experiment/realtime_runner.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"
#include "util/str.h"

namespace dupnet::experiment {
namespace {

using Clock = std::chrono::steady_clock;

double WallSeconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

}  // namespace

RealtimeRunner::RealtimeRunner(SimulationDriver* driver,
                               net::UdpTransport* transport,
                               const RealtimeOptions& options)
    : driver_(driver), transport_(transport), options_(options) {
  DUP_CHECK(driver != nullptr);
  DUP_CHECK(transport != nullptr);
  DUP_CHECK_GT(options.pace, 0.0);
}

util::Status RealtimeRunner::Run(sim::SimTime horizon) {
  const Clock::time_point start = Clock::now();
  const double wall_cap = options_.max_wall_ms / 1000.0;
  sim::Engine& engine = driver_->engine();
  net::OverlayNetwork& network = driver_->network();

  // Phase 1: workload. Advance simulated time no faster than
  // `pace * wall_elapsed`, pumping the socket between slices.
  while (engine.Now() < horizon) {
    const sim::SimTime target =
        std::min(horizon, WallSeconds(start) * options_.pace);
    if (target > engine.Now()) driver_->RunUntil(target);
    auto pumped = transport_->Pump(options_.poll_ms);
    DUP_RETURN_IF_ERROR(pumped.status());
    if (WallSeconds(start) > wall_cap) {
      return util::Status::Unavailable(util::StrFormat(
          "wall-clock cap %d ms exceeded at t=%.3f of horizon %.3f",
          options_.max_wall_ms, engine.Now(), horizon));
    }
  }

  // Phase 2: drain. Keep pacing (so retry timers fire on schedule, not
  // fast-forwarded) until nothing is owed in either direction: no unacked
  // reliable transmission, nothing in simulated flight, and a settle
  // window without one inbound frame — remote peers may still be
  // retransmitting toward us, and our acks only flow while we pump.
  Clock::time_point quiet_since = Clock::now();
  for (;;) {
    const sim::SimTime target = WallSeconds(start) * options_.pace;
    if (target > engine.Now()) driver_->RunUntil(target);
    auto pumped = transport_->Pump(options_.poll_ms);
    DUP_RETURN_IF_ERROR(pumped.status());
    const bool locally_quiet =
        network.pending_acks() == 0 && network.in_flight_count() == 0;
    if (*pumped > 0 || !locally_quiet) quiet_since = Clock::now();
    if (locally_quiet && WallSeconds(quiet_since) * 1000.0 >=
                             static_cast<double>(options_.settle_ms)) {
      break;
    }
    if (WallSeconds(start) > wall_cap) {
      return util::Status::Unavailable(util::StrFormat(
          "wall-clock cap %d ms exceeded draining (pending_acks=%zu "
          "in_flight=%zu)",
          options_.max_wall_ms, network.pending_acks(),
          network.in_flight_count()));
    }
  }

  // The queue may still hold stale retry timers for long-acked sequences;
  // with the network quiescent they are all no-ops, so letting the engine
  // run dry is safe and leaves the state auditable.
  engine.Run();
  // A frame still pending here was never sent, and would read as lost.
  if (!transport_->outbox_empty()) {
    return util::Status::Internal("frames left unsent after the drain");
  }
  return util::Status::OK();
}

}  // namespace dupnet::experiment
