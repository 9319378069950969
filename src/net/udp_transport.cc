#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/overlay_network.h"
#include "util/str.h"

namespace dupnet::net {
namespace {

using util::Result;
using util::Status;

static_assert(sizeof(sockaddr_in) <= 16,
              "peer_addrs_ raw storage must hold a sockaddr_in");

Status ErrnoStatus(const char* what) {
  return Status::Unavailable(
      util::StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Parses "host:port" into a sockaddr_in. Hosts are numeric IPv4 only
/// (cluster smoke runs on 127.0.0.1; no resolver dependency).
Status ParseEndpoint(const std::string& spec, sockaddr_in* addr) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        util::StrFormat("peer endpoint '%s' is not host:port", spec.c_str()));
  }
  const std::string host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return Status::InvalidArgument(util::StrFormat(
        "peer endpoint '%s' has invalid port '%s'", spec.c_str(),
        port_text.c_str()));
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument(util::StrFormat(
        "peer endpoint '%s' has invalid IPv4 host '%s'", spec.c_str(),
        host.c_str()));
  }
  return Status::OK();
}

}  // namespace

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
  if (frame_log_ != nullptr) std::fclose(frame_log_);
}

Status UdpTransport::Open(const Options& options) {
  if (options.peers.empty()) {
    return Status::InvalidArgument("peer table is empty");
  }
  if (options.rank < 0 ||
      options.rank >= static_cast<int>(options.peers.size())) {
    return Status::InvalidArgument(util::StrFormat(
        "rank %d outside peer table of %zu", options.rank,
        options.peers.size()));
  }
  rank_ = options.rank;
  procs_ = static_cast<int>(options.peers.size());
  loopback_wire_ = options.loopback_wire;
  peer_addrs_.resize(options.peers.size());
  outbox_.resize(options.peers.size());
  for (size_t i = 0; i < options.peers.size(); ++i) {
    sockaddr_in addr;
    DUP_RETURN_IF_ERROR(ParseEndpoint(options.peers[i], &addr));
    std::memcpy(peer_addrs_[i].data(), &addr, sizeof(addr));
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return ErrnoStatus("socket");
  sockaddr_in self;
  std::memcpy(&self, peer_addrs_[static_cast<size_t>(rank_)].data(),
              sizeof(self));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&self), sizeof(self)) <
      0) {
    return ErrnoStatus("bind");
  }
  const int fl = ::fcntl(fd_, F_GETFL, 0);
  if (fl < 0 || ::fcntl(fd_, F_SETFL, fl | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  if (!options.frame_log_path.empty()) {
    frame_log_ = std::fopen(options.frame_log_path.c_str(), "wb");
    if (frame_log_ == nullptr) return ErrnoStatus("fopen(frame_log)");
  }
  return Status::OK();
}

bool UdpTransport::IsLocal(NodeId node) const {
  if (loopback_wire_) return false;  // Everything crosses the wire.
  return OwnerOf(node) == rank_;
}

Status UdpTransport::LogFrame(char dir, const uint8_t* data, size_t size) {
  if (frame_log_ == nullptr) return Status::OK();
  // Record: [dir byte][u32 length LE][frame bytes] — tools/dupwire input.
  const uint32_t len = static_cast<uint32_t>(size);
  const uint8_t header[5] = {static_cast<uint8_t>(dir),
                             static_cast<uint8_t>(len),
                             static_cast<uint8_t>(len >> 8),
                             static_cast<uint8_t>(len >> 16),
                             static_cast<uint8_t>(len >> 24)};
  if (std::fwrite(header, 1, sizeof(header), frame_log_) != sizeof(header) ||
      std::fwrite(data, 1, size, frame_log_) != size) {
    return ErrnoStatus("fwrite(frame_log)");
  }
  return Status::OK();
}

Status UdpTransport::Ship(const Message& message) {
  DUP_RETURN_IF_ERROR(wire::Serialize(message, &scratch_));
  // Live enforcement of the wire contract: the frame must decode back to
  // the exact message before it is allowed to leave the process.
  DUP_RETURN_IF_ERROR(
      wire::Parse(scratch_.data(), scratch_.size(), &ship_check_));
  if (ship_check_ != message) {
    return Status::Internal(util::StrFormat(
        "round-trip mismatch for outbound frame: %s", message.ToString().c_str()));
  }
  DUP_RETURN_IF_ERROR(LogFrame('T', scratch_.data(), scratch_.size()));
  const size_t owner =
      static_cast<size_t>(loopback_wire_ ? rank_ : OwnerOf(message.to));
  // A frame that would overflow the pending datagram sends it first. A
  // frame over the budget therefore always ends up alone in its datagram.
  std::vector<uint8_t>& datagram = outbox_[owner];
  if (!datagram.empty() &&
      datagram.size() + scratch_.size() > wire::kDatagramBudget) {
    Flush(owner);
  }
  datagram.insert(datagram.end(), scratch_.begin(), scratch_.end());
  ++frames_shipped_;
  return Status::OK();
}

void UdpTransport::Flush(size_t rank) {
  std::vector<uint8_t>& datagram = outbox_[rank];
  if (datagram.empty()) return;
  sockaddr_in dest;
  std::memcpy(&dest, peer_addrs_[rank].data(), sizeof(dest));
  ssize_t sent;
  do {
    sent = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                    reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  } while (sent < 0 && errno == EINTR);
  // A failed or partial send loses the datagram, exactly as the network
  // would; reliable frames in it recover through the retry timer.
  if (sent >= 0 && static_cast<size_t>(sent) == datagram.size()) {
    ++datagrams_shipped_;
  } else {
    ++datagrams_dropped_;
  }
  datagram.clear();
}

bool UdpTransport::outbox_empty() const {
  for (const std::vector<uint8_t>& datagram : outbox_) {
    if (!datagram.empty()) return false;
  }
  return true;
}

Result<size_t> UdpTransport::Pump(int timeout_ms) {
  if (network_ == nullptr) {
    return Status::FailedPrecondition("Pump before set_network");
  }
  size_t delivered = 0;
  // Our own datagrams never exceed kMaxFrameSize (wire::kDatagramBudget is
  // below it and a larger frame travels alone); +1 detects bigger ones.
  uint8_t buffer[wire::kMaxFrameSize + 1];
  for (;;) {
    for (size_t rank = 0; rank < outbox_.size(); ++rank) Flush(rank);
    const ssize_t got = ::recvfrom(fd_, buffer, sizeof(buffer), 0, nullptr,
                                   nullptr);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (delivered > 0 || timeout_ms <= 0) return delivered;
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0) return ErrnoStatus("poll");
        if (ready == 0) return delivered;  // Timed out empty-handed.
        continue;
      }
      if (errno == EINTR) continue;
      return ErrnoStatus("recvfrom");
    }
    const size_t size = static_cast<size_t>(got);
    if (size > wire::kMaxFrameSize) {
      // Cut short by the buffer: no sender of this build made it.
      DUP_RETURN_IF_ERROR(LogFrame('R', buffer, size));
      ++frames_rejected_;
      continue;
    }
    for (size_t offset = 0; offset < size;) {
      const uint8_t* frame = buffer + offset;
      const size_t length = wire::FrameLength(frame, size - offset);
      if (!wire::Parse(frame, length, &inbound_).ok()) {
        // Malformed or alien frame: the rest of the datagram cannot be
        // split reliably, so it is logged as one record, counted once and
        // dropped — never UB, never a crash. Reliable classes recover
        // through the sender's retry timer.
        DUP_RETURN_IF_ERROR(LogFrame('R', frame, size - offset));
        ++frames_rejected_;
        break;
      }
      DUP_RETURN_IF_ERROR(LogFrame('R', frame, length));
      offset += length;
      // Byte-level round-trip on the inbound side: re-encoding the decoded
      // message must reproduce the received frame exactly.
      DUP_RETURN_IF_ERROR(wire::Serialize(inbound_, &verify_));
      if (verify_.size() != length ||
          std::memcmp(verify_.data(), frame, length) != 0) {
        return Status::Internal(util::StrFormat(
            "inbound frame re-encode mismatch: %s",
            inbound_.ToString().c_str()));
      }
      ++frames_received_;
      network_->ReceiveFrame(inbound_);
      ++delivered;
    }
  }
}

}  // namespace dupnet::net
