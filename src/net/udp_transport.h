#ifndef DUP_NET_UDP_TRANSPORT_H_
#define DUP_NET_UDP_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/status.h"
#include "util/types.h"

namespace dupnet::net {

class OverlayNetwork;

/// Real-socket transport backend: ships net::wire frames as UDP datagrams
/// between the dupd processes of a cluster (tools/dupd, docs/wire-format.md).
///
/// Frames are coalesced: Ship() appends each frame to a pending datagram
/// for the destination rank, and the datagram is sent when the next frame
/// would push it past wire::kDatagramBudget or when Pump() runs, which
/// sends every pending datagram before each socket read. One datagram per
/// peer per pump pass replaces one per frame, which is what bounds the tail
/// latency of a publish or expiry burst: the per-datagram kernel path, not
/// the syscall entry, dominates a loopback send.
///
/// Node ownership is static SPMD partitioning: node `n` lives in the
/// process with rank `n % procs`. Every process builds the identical
/// topology from the same seed, so the owner of any destination is a pure
/// local computation — no lookup traffic. With `loopback_wire` set the
/// process owns every node but IsLocal() still reports false, forcing each
/// frame through serialize -> socket -> parse back into itself; that mode
/// exists so the full audit::InvariantChecker can run over protocol state
/// built entirely from decoded bytes.
///
/// Every outbound frame is round-trip-verified (Parse(Serialize(m)) == m)
/// before it leaves, and every inbound frame is re-serialized and compared
/// byte-for-byte against what arrived — the wire contract is enforced on
/// the live path, not just in tests. Optionally each frame is appended to
/// a binary frame log that tools/dupwire can validate offline.
class UdpTransport : public Transport {
 public:
  struct Options {
    /// This process's rank in [0, procs). Rank r binds peers[r]'s port.
    int rank = 0;
    /// Peer endpoints, "host:port", indexed by rank; procs = peers.size().
    std::vector<std::string> peers;
    /// Own all nodes but ship every frame over the socket to self.
    bool loopback_wire = false;
    /// When non-empty, append [dir][u32 len LE][frame] records here
    /// ('T' = transmitted, 'R' = received) for offline validation.
    std::string frame_log_path;
  };

  UdpTransport() = default;
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Resolves the peer table, binds the local socket (non-blocking) and
  /// opens the frame log. Must succeed before the transport is installed.
  util::Status Open(const Options& options);

  /// The network whose ReceiveFrame() consumes inbound frames. Set before
  /// the first Pump().
  void set_network(OverlayNetwork* network) { network_ = network; }

  std::string_view name() const override { return "udp"; }
  bool IsLocal(NodeId node) const override;
  util::Status Ship(const Message& message) override;

  /// Rank that owns `node` (Ship's destination routing).
  int OwnerOf(NodeId node) const {
    return static_cast<int>(node % static_cast<NodeId>(procs_));
  }

  /// Sends every pending datagram, then drains the socket, decoding and
  /// delivering every queued frame in order; pending datagrams are sent
  /// again before each further read, so the replies those frames trigger
  /// travel within the same call. Blocks up to `timeout_ms` for the first
  /// datagram (0 = pure poll). Returns the number of frames delivered; on
  /// success nothing is left pending.
  util::Result<size_t> Pump(int timeout_ms);

  /// Frames accepted by Ship(), whether or not their datagram has left.
  uint64_t frames_shipped() const { return frames_shipped_; }
  uint64_t frames_received() const { return frames_received_; }
  /// Inbound datagrams cut short by a frame net::wire::Parse rejected
  /// (malformed/alien): the frames before it are delivered, that frame
  /// and the rest of the datagram are dropped and counted once here.
  uint64_t frames_rejected() const { return frames_rejected_; }
  /// Datagrams handed to the kernel.
  uint64_t datagrams_shipped() const { return datagrams_shipped_; }
  /// Datagrams a failed sendto dropped; their frames count as shipped and
  /// reliable ones recover through the sender's retry timer.
  uint64_t datagrams_dropped() const { return datagrams_dropped_; }
  /// True when no frame is waiting in a pending datagram.
  bool outbox_empty() const;

 private:
  util::Status LogFrame(char dir, const uint8_t* data, size_t size);
  /// Sends rank's pending datagram, if any, and empties it.
  void Flush(size_t rank);

  OverlayNetwork* network_ = nullptr;
  int fd_ = -1;
  int rank_ = 0;
  int procs_ = 1;
  bool loopback_wire_ = false;
  /// sockaddr_in per rank, kept as raw storage to keep socket headers out
  /// of this header.
  std::vector<std::array<unsigned char, 16>> peer_addrs_;
  std::FILE* frame_log_ = nullptr;
  /// Pending datagram per destination rank: whole frames back to back.
  std::vector<std::vector<uint8_t>> outbox_;
  // Ship() and Pump() need disjoint scratch state: delivering an inbound
  // message can reenter Ship() (the receiver acks, the protocol replies)
  // while that message is still referenced, so Ship must never write into
  // Pump's decode scratch.
  std::vector<uint8_t> scratch_;     ///< Ship: outbound encode buffer.
  Message ship_check_;               ///< Ship: round-trip decode scratch.
  Message inbound_;                  ///< Pump: inbound decode scratch.
  std::vector<uint8_t> verify_;      ///< Pump: re-encode compare buffer.
  uint64_t frames_shipped_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t frames_rejected_ = 0;
  uint64_t datagrams_shipped_ = 0;
  uint64_t datagrams_dropped_ = 0;
};

}  // namespace dupnet::net

#endif  // DUP_NET_UDP_TRANSPORT_H_
