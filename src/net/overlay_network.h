#ifndef DUP_NET_OVERLAY_NETWORK_H_
#define DUP_NET_OVERLAY_NETWORK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "metrics/recorder.h"
#include "net/fault_injection.h"
#include "net/message.h"
#include "net/pair_clock.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace dupnet::net {

class Transport;

/// Observer interface for message-level events (trace::JsonlTraceWriter is
/// the standard implementation). Purely diagnostic: the observer must not
/// mutate protocol or network state.
class MessageObserver {
 public:
  virtual ~MessageObserver() = default;
  virtual void OnSend(sim::SimTime time, const Message& message) = 0;
  virtual void OnDeliver(sim::SimTime time, const Message& message) = 0;
  virtual void OnDrop(sim::SimTime time, const Message& message) = 0;
};

/// Models the overlay on top of the Internet. Because the overlay is fully
/// connected at the IP layer, *every* node-to-node message costs exactly one
/// overlay hop (this is what makes DUP's direct shortcut pushes cheap), with
/// transfer latency drawn from Exp(mean_hop_latency) — paper Section IV.
///
/// Hop accounting is done at send time against the shared
/// metrics::Recorder, classed by message type. Messages addressed to or
/// from a node marked down are dropped, but their hops ARE charged: the
/// sender committed the transmission before learning of the failure, so
/// the paper's cost metric must include it (failure detection is the
/// protocols' job, via soft-state refresh and ack timeouts).
///
/// Fault injection (see FaultConfig): with `loss_rate > 0` each
/// transmission is lost independently with that probability; with
/// `jitter > 0` one extra Uniform[0, jitter) latency term is added per
/// message. Both draw from the run's own Rng stream, so outcomes are a
/// pure function of `(seed, sweep_index, rep)` and identical at any job
/// count. With the default config no extra draws happen at all, keeping
/// lossless runs bit-identical to a build without the fault layer.
///
/// Reliability (`retry_max > 0`): message types for which NeedsAck() holds
/// are assigned a sequence number, acknowledged by the receiver with a
/// free-ride kAck (consumed by the network itself, never dispatched), and
/// retransmitted on timeout with exponential backoff until acked or the
/// retry cap is reached. Acks are themselves lossy, so delivery is
/// at-least-once: protocols must tolerate duplicate messages.
///
/// The network is itself a sim::EventTarget: deliveries and retry timers
/// are typed events whose payloads (in-flight Messages) live in an
/// internal slab recycled through a free list, so steady-state traffic
/// schedules zero closures and performs zero per-message allocations once
/// route-vector capacities have warmed up.
class OverlayNetwork : public sim::EventTarget {
 public:
  /// Test seam: returns true to force-drop a message in flight.
  using LossFilter = std::function<bool(const Message&)>;

  OverlayNetwork(sim::Engine* engine, util::Rng* rng,
                 metrics::Recorder* recorder, double mean_hop_latency = 0.1);

  OverlayNetwork(const OverlayNetwork&) = delete;
  OverlayNetwork& operator=(const OverlayNetwork&) = delete;

  /// Installs the dispatch point for delivered messages (the protocol
  /// under simulation). Must be set before the first send.
  void set_sink(MessageSink* sink) { sink_ = sink; }

  /// Typed event dispatch (delivery / retry timers). Internal — only the
  /// sim engine calls this.
  void OnSimEvent(uint32_t code, uint64_t arg) override;

  /// Called by the engine one event ahead of OnSimEvent with the same
  /// (code, arg): pulls the next delivery's in-flight message toward the
  /// cache while the current event is still dispatching (docs/profiling.md).
  void PrefetchSimEvent(uint32_t code, uint64_t arg) override;

  /// Arms fault injection and/or reliable delivery. Call before traffic
  /// starts; `config` must Validate().
  void set_faults(const FaultConfig& config);
  const FaultConfig& faults() const { return faults_; }

  /// Installs a deterministic force-drop predicate (tests only; nullptr to
  /// remove). Applies regardless of `loss_rate`, after down-node checks.
  void set_loss_filter(LossFilter filter) { loss_filter_ = std::move(filter); }

  /// Sends one overlay hop: charges the hop, draws a latency, schedules
  /// delivery (or retransmission bookkeeping when reliability is armed).
  /// The message is copied into internal storage; callers may reuse theirs
  /// (scratch-message idiom) as soon as the call returns.
  void Send(const Message& message);

  /// Sends a message that logically traverses `1 + extra_hops` overlay hops
  /// (used for the no-shortcut DUP ablation, where a push must walk the
  /// index search tree). Charges all hops and draws one latency sample per
  /// hop.
  void SendMultiHop(const Message& message, uint32_t extra_hops);

  /// When true (default), deliveries between the same ordered node pair are
  /// FIFO, modelling a TCP connection per overlay link. DUP's substitute
  /// handshake relies on this; disabling it is only for tests. Lost
  /// messages still advance the pair clock (they occupied the connection).
  void set_fifo_pairs(bool fifo) { fifo_pairs_ = fifo; }

  /// Installs a diagnostic observer (nullptr to detach). Not owned.
  void set_observer(MessageObserver* observer) { observer_ = observer; }

  /// Installs a physical transport (nullptr, the default, keeps the pure
  /// in-memory simulated medium — that path is untouched and stays
  /// bit-identical to the committed goldens). With a transport installed,
  /// a transmission whose destination is not transport->IsLocal() is
  /// handed to Transport::Ship() after all hop/counter accounting instead
  /// of drawing simulated latency/loss; real sockets provide both. Ack and
  /// retry bookkeeping is unchanged on either path. Not owned.
  void set_transport(Transport* transport) { transport_ = transport; }
  Transport* transport() const { return transport_; }

  /// Entry point for a frame that arrived over a real transport and was
  /// decoded by net::wire: delivers it exactly as a simulated arrival
  /// would (observer, delivery counters, ack generation, dispatch).
  void ReceiveFrame(const Message& message) { Deliver(message); }

  /// Marks `node` down (crashed) or back up. Down nodes neither send nor
  /// receive.
  void SetNodeDown(NodeId node, bool down);
  bool IsDown(NodeId node) const;
  /// True iff `pred(node)` holds for some node marked down. Scans the
  /// packed down set a word at a time, so an all-up network costs one pass
  /// over ids / 64 words and allocates nothing.
  template <typename Pred>
  bool AnyDown(Pred&& pred) const {
    for (size_t word = 0; word < down_.size(); ++word) {
      for (uint64_t bits = down_[word]; bits != 0; bits &= bits - 1) {
        const int bit = std::countr_zero(bits);
        if (pred(static_cast<NodeId>(word * 64 + bit))) return true;
      }
    }
    return false;
  }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  /// Reliable transmissions still awaiting an ack.
  size_t pending_acks() const { return pending_.size(); }
  /// Transmissions currently scheduled for delivery. Together with
  /// pending_acks() == 0 this defines network quiescence: no message is on
  /// the wire and none will be retransmitted.
  size_t in_flight_count() const {
    return in_flight_.size() - in_flight_free_.size();
  }
  /// In-flight message slots ever allocated (pool high-water mark).
  size_t message_pool_slots() const { return in_flight_.size(); }
  /// Longest route vector held by any in-flight slot (prewarm sizing).
  size_t max_route_capacity() const {
    size_t cap = 0;
    for (const Message& m : in_flight_) cap = std::max(cap, m.route.capacity());
    return cap;
  }
  /// FIFO pair-clock table slots (prewarm sizing / bytes-per-node audit).
  size_t pair_clock_capacity() const { return pair_clock_.capacity(); }
  /// Fresh links ever inserted into the pair clock (see PairClock::inserts;
  /// feed `inserts() + 1` to Prewarm's pair_slots for a rehash-free replay).
  uint64_t pair_clock_inserts() const { return pair_clock_.inserts(); }

  /// Pre-sizes the internal pools so a steady-state run allocates nothing:
  /// `in_flight_slots` message slots, each with room for `route_capacity`
  /// route entries; `pair_slots` FIFO link clocks; down-markers for ids up
  /// to `max_node_id`. Feed it the high-water marks of an identical prior
  /// run (the two-run allocation census in bench_micro) or an upper bound.
  void Prewarm(size_t in_flight_slots, size_t route_capacity,
               size_t pair_slots, size_t max_node_id);

  sim::Engine* engine() const { return engine_; }
  metrics::Recorder* recorder() const { return recorder_; }

 private:
  /// Typed event codes (OnSimEvent). kEventDeliver's arg is an in_flight_
  /// slot index; kEventRetry's arg is a reliable sequence number.
  static constexpr uint32_t kEventDeliver = 0;
  static constexpr uint32_t kEventRetry = 1;

  /// A reliable message awaiting its ack.
  struct Pending {
    Message message;
    uint32_t extra_hops = 0;
    uint32_t attempts = 0;  ///< Retransmissions performed so far.
  };

  /// Performs one transmission attempt: charges hops, updates delivery
  /// counters, draws loss/latency, schedules delivery.
  void Transmit(const Message& message, uint32_t extra_hops);
  /// Schedules the retry timer for `seq` based on its attempt count.
  void ScheduleRetry(uint64_t seq);
  void OnRetryTimer(uint64_t seq);
  /// Runs at the scheduled delivery time of one transmission.
  void Deliver(const Message& message);
  /// Copies `message` into a recycled in-flight slot (the copy reuses the
  /// slot's route-vector capacity) and returns the slot index.
  uint32_t AcquireInFlight(const Message& message);

  sim::Engine* engine_;
  util::Rng* rng_;
  metrics::Recorder* recorder_;
  double mean_hop_latency_;
  MessageSink* sink_ = nullptr;
  MessageObserver* observer_ = nullptr;
  Transport* transport_ = nullptr;
  bool fifo_pairs_ = true;
  FaultConfig faults_;
  LossFilter loss_filter_;
  /// Last scheduled delivery time per ordered (from, to) pair.
  PairClock pair_clock_;
  /// Down markers, one bit per NodeId (ids are dense-issued). Packed so
  /// the two IsDown checks on every transmit stay within a couple of cache
  /// lines even at millions of nodes (almost-all-up is the common case).
  std::vector<uint64_t> down_;
  /// Unacked reliable transmissions, keyed by sequence number.
  std::unordered_map<uint64_t, Pending> pending_;
  /// In-flight message slab, indexed by kEventDeliver's arg. A deque so
  /// references held across reentrant Transmit() calls (delivery ->
  /// protocol -> Send) survive pool growth; slots are recycled once
  /// Deliver() returns.
  std::deque<Message> in_flight_;
  std::vector<uint32_t> in_flight_free_;
  uint64_t next_seq_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
};

}  // namespace dupnet::net

#endif  // DUP_NET_OVERLAY_NETWORK_H_
