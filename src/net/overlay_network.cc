#include "net/overlay_network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/transport.h"
#include "util/check.h"

namespace dupnet::net {
namespace {

uint64_t PairKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

OverlayNetwork::OverlayNetwork(sim::Engine* engine, util::Rng* rng,
                               metrics::Recorder* recorder,
                               double mean_hop_latency)
    : engine_(engine),
      rng_(rng),
      recorder_(recorder),
      mean_hop_latency_(mean_hop_latency) {
  DUP_CHECK(engine != nullptr);
  DUP_CHECK(rng != nullptr);
  DUP_CHECK(recorder != nullptr);
  DUP_CHECK_GT(mean_hop_latency, 0.0);
}

void OverlayNetwork::set_faults(const FaultConfig& config) {
  DUP_CHECK_OK(config.Validate());
  faults_ = config;
}

void OverlayNetwork::Send(const Message& message) {
  SendMultiHop(message, 0);
}

uint32_t OverlayNetwork::AcquireInFlight(const Message& message) {
  uint32_t slot;
  if (!in_flight_free_.empty()) {
    slot = in_flight_free_.back();
    in_flight_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  // Copy-assign (not move) so the slot's route vector keeps its capacity
  // across reuses — steady-state traffic then allocates nothing.
  in_flight_[slot] = message;
  return slot;
}

void OverlayNetwork::PrefetchSimEvent(uint32_t code, uint64_t arg) {
  if (code != kEventDeliver) return;
  __builtin_prefetch(&in_flight_[static_cast<uint32_t>(arg)]);
}

void OverlayNetwork::OnSimEvent(uint32_t code, uint64_t arg) {
  switch (code) {
    case kEventDeliver: {
      const uint32_t slot = static_cast<uint32_t>(arg);
      // The slab reference stays valid across reentrant sends (deque), and
      // the slot is recycled only after Deliver returns.
      Deliver(in_flight_[slot]);
      in_flight_free_.push_back(slot);
      break;
    }
    case kEventRetry:
      OnRetryTimer(arg);
      break;
    default:
      DUP_CHECK(false) << "unknown network event code " << code;
  }
}

void OverlayNetwork::SendMultiHop(const Message& message,
                                  uint32_t extra_hops) {
  DUP_CHECK(sink_ != nullptr) << "no message sink installed";
  DUP_CHECK_NE(message.to, kInvalidNode);
  if (faults_.reliable() && NeedsAck(message.type) && message.seq == 0) {
    const uint64_t seq = ++next_seq_;
    Pending& pending = pending_[seq];
    pending.message = message;  // Copy first; the caller's stays seq-less.
    pending.message.seq = seq;
    pending.extra_hops = extra_hops;
    Transmit(pending.message, extra_hops);
    ScheduleRetry(seq);
    return;
  }
  Transmit(message, extra_hops);
}

void OverlayNetwork::Transmit(const Message& message, uint32_t extra_hops) {
  const metrics::HopClass hop_class = HopClassOf(message.type);
  // Transport acks are invisible to the delivery counters: they model the
  // TCP ack stream, not protocol traffic.
  const bool counted = message.type != MessageType::kAck;
  if (IsDown(message.from) || IsDown(message.to)) {
    // The sender committed the transmission before discovering the peer (or
    // itself) is gone, so the hop cost is charged like any other attempt.
    ++messages_sent_;
    ++messages_dropped_;
    if (!message.free_ride) {
      recorder_->AddHops(hop_class, 1 + extra_hops);
    }
    if (counted) {
      recorder_->OnMessageSent(hop_class);
      recorder_->OnMessageDropped(hop_class);
    }
    if (observer_ != nullptr) observer_->OnDrop(engine_->Now(), message);
    return;
  }
  ++messages_sent_;
  if (observer_ != nullptr) observer_->OnSend(engine_->Now(), message);
  if (!message.free_ride) {
    recorder_->AddHops(hop_class, 1 + extra_hops);
  }
  if (counted) recorder_->OnMessageSent(hop_class);
  if (transport_ != nullptr && !transport_->IsLocal(message.to)) {
    // The destination lives in another process (or behind a loopback
    // wire): latency and loss are now the real network's, so no simulated
    // draws happen for this leg. Hop accounting already ran above; the
    // retry timer armed by the caller covers a lost datagram.
    const util::Status shipped = transport_->Ship(message);
    if (!shipped.ok()) {
      ++messages_dropped_;
      if (counted) recorder_->OnMessageDropped(hop_class);
      if (observer_ != nullptr) observer_->OnDrop(engine_->Now(), message);
    }
    return;
  }
  double latency = rng_->Exponential(mean_hop_latency_);
  for (uint32_t i = 0; i < extra_hops; ++i) {
    latency += rng_->Exponential(mean_hop_latency_);
  }
  // Each fault-injection draw is guarded so the default config consumes no
  // randomness at all — lossless runs stay bit-identical.
  if (faults_.jitter > 0.0) {
    latency += rng_->UniformDouble(0.0, faults_.jitter);
  }
  bool lost = false;
  if (faults_.loss_rate > 0.0) {
    lost = rng_->Bernoulli(faults_.loss_rate);
  }
  if (!lost && loss_filter_ && loss_filter_(message)) {
    lost = true;
  }
  sim::SimTime deliver_at = engine_->Now() + latency;
  if (fifo_pairs_) {
    deliver_at = pair_clock_.Advance(PairKey(message.from, message.to),
                                     deliver_at, engine_->Now());
  }
  if (lost) {
    ++messages_dropped_;
    if (counted) recorder_->OnMessageDropped(hop_class);
    if (observer_ != nullptr) observer_->OnDrop(engine_->Now(), message);
    return;
  }
  engine_->ScheduleAt(deliver_at, this, kEventDeliver,
                      AcquireInFlight(message));
}

void OverlayNetwork::Deliver(const Message& message) {
  const metrics::HopClass hop_class = HopClassOf(message.type);
  // The destination may have crashed while the message was in flight.
  if (IsDown(message.to)) {
    ++messages_dropped_;
    if (message.type != MessageType::kAck) {
      recorder_->OnMessageDropped(hop_class);
    }
    if (observer_ != nullptr) observer_->OnDrop(engine_->Now(), message);
    return;
  }
  if (observer_ != nullptr) observer_->OnDeliver(engine_->Now(), message);
  if (message.type == MessageType::kAck) {
    // Consume the ack: the matching transmission is confirmed, its retry
    // timer becomes a no-op. Never dispatched to the protocol.
    pending_.erase(message.seq);
    return;
  }
  recorder_->OnMessageDelivered(hop_class);
  if (message.seq != 0 && faults_.reliable()) {
    Message ack;
    ack.type = MessageType::kAck;
    ack.from = message.to;
    ack.to = message.from;
    ack.seq = message.seq;
    ack.free_ride = true;
    Transmit(ack, 0);
  }
  // Dispatch after acking: a retransmitted message that raced its ack may
  // arrive more than once, so protocols see at-least-once delivery.
  sink_->OnMessage(message);
}

void OverlayNetwork::ScheduleRetry(uint64_t seq) {
  auto it = pending_.find(seq);
  DUP_CHECK(it != pending_.end());
  const double delay =
      faults_.retry_timeout *
      std::pow(faults_.retry_backoff, static_cast<double>(it->second.attempts));
  engine_->ScheduleAfter(delay, this, kEventRetry, seq);
}

void OverlayNetwork::OnRetryTimer(uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // Acked before the timer fired.
  Pending& pending = it->second;
  if (IsDown(pending.message.from)) {
    // The sender crashed; its unacked traffic dies with it (no give-up
    // charge — there is no surviving endpoint to account it to).
    pending_.erase(it);
    return;
  }
  if (pending.attempts >= faults_.retry_max) {
    recorder_->OnGiveUp(HopClassOf(pending.message.type));
    pending_.erase(it);
    return;
  }
  ++pending.attempts;
  recorder_->OnRetry(HopClassOf(pending.message.type));
  Transmit(pending.message, pending.extra_hops);
  ScheduleRetry(seq);
}

void OverlayNetwork::SetNodeDown(NodeId node, bool down) {
  const size_t word = node >> 6;
  if (down_.size() <= word) {
    if (!down) return;  // Beyond the map means up; nothing to record.
    down_.resize(word + 1, 0);
  }
  const uint64_t bit = uint64_t{1} << (node & 63);
  if (down) {
    down_[word] |= bit;
  } else {
    down_[word] &= ~bit;
  }
}

bool OverlayNetwork::IsDown(NodeId node) const {
  const size_t word = node >> 6;
  return word < down_.size() && (down_[word] >> (node & 63)) & 1;
}

void OverlayNetwork::Prewarm(size_t in_flight_slots, size_t route_capacity,
                             size_t pair_slots, size_t max_node_id) {
  in_flight_free_.reserve(std::max(in_flight_free_.capacity(),
                                   in_flight_slots));
  while (in_flight_.size() < in_flight_slots) {
    in_flight_free_.push_back(static_cast<uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  for (Message& slot : in_flight_) slot.route.reserve(route_capacity);
  pair_clock_.Reserve(pair_slots, engine_->Now());
  if (max_node_id > 0 && down_.size() <= (max_node_id >> 6)) {
    down_.resize((max_node_id >> 6) + 1, 0);
  }
}

}  // namespace dupnet::net
