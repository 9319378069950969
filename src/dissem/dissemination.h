#ifndef DUP_DISSEM_DISSEMINATION_H_
#define DUP_DISSEM_DISSEMINATION_H_

#include <functional>
#include <string_view>

#include "net/overlay_network.h"
#include "topo/tree.h"
#include "util/types.h"

namespace dupnet::dissem {

/// Explicit-membership dissemination over a structured overlay — the
/// abstraction the paper's Related Work (Section V) compares DUP against:
/// application-level multicast à la SCRIBE and Bayeux. Subscribers join and
/// leave explicitly; every publish must reach every current subscriber.
///
/// Implementations share the index search tree and overlay used by the
/// consistency schemes so their control/push/state costs are directly
/// comparable (see bench_ablation_dissemination). A protocol is the
/// overlay's message sink: install it with OverlayNetwork::set_sink().
class DisseminationProtocol : public net::MessageSink {
 public:
  using DeliveryCallback = std::function<void(NodeId, IndexVersion)>;

  virtual ~DisseminationProtocol() = default;

  virtual std::string_view name() const = 0;

  /// Adds `node` to the multicast group. Idempotent.
  virtual void Subscribe(NodeId node) = 0;

  /// Removes `node` from the group. Idempotent.
  virtual void Unsubscribe(NodeId node) = 0;

  /// Publishes a new version at the tree root (the rendezvous/authority).
  virtual void Publish(IndexVersion version, sim::SimTime expiry) = 0;

  /// Largest per-node routing/membership table the scheme currently
  /// maintains anywhere — the paper's scalability argument (Section V:
  /// Bayeux roots track all descendants; SCRIBE and DUP only direct
  /// children).
  virtual size_t MaxNodeState() const = 0;

  void set_delivery_callback(DeliveryCallback cb) {
    delivery_callback_ = std::move(cb);
  }

 protected:
  void NotifyDelivery(NodeId node, IndexVersion version) {
    if (delivery_callback_) delivery_callback_(node, version);
  }

 private:
  DeliveryCallback delivery_callback_;
};

}  // namespace dupnet::dissem

#endif  // DUP_DISSEM_DISSEMINATION_H_
