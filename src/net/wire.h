#ifndef DUP_NET_WIRE_H_
#define DUP_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/status.h"

namespace dupnet::net::wire {

/// Packed binary wire format for net::Message (docs/wire-format.md).
///
/// A UDP datagram carries one or more whole frames back to back. Each frame
/// is:
///
///   offset  size  field
///   0       1     msgcode (kMsgCode*, 0x01..0x09; 0x00 reserved invalid)
///   1       1     wire format version (kWireVersion)
///   2       1     flags (bit 0 = stale, bit 1 = free_ride; rest MBZ)
///   3       1     reserved (MBZ)
///   4       4     from     (u32 LE)
///   8       4     to       (u32 LE)
///   12      4     origin   (u32 LE)
///   16      4     hops     (u32 LE)
///   20      8     version  (u64 LE)
///   28      8     expiry   (IEEE-754 binary64, LE bit pattern; finite)
///   36      8     seq      (u64 LE)
///   44      4     subject  (u32 LE)
///   48      4     subject2 (u32 LE)
///   52      2     route_len (u16 LE, count of entries, <= kMaxRouteEntries)
///   54      4*n   route[n] (u32 LE each)
///
/// Parse() treats its input as untrusted: truncated buffers, unknown
/// msgcodes, nonzero reserved/flag bits, non-finite expiry payloads,
/// over-cap route lengths and trailing garbage all return a non-OK
/// util::Status without reading out of bounds — never UB on malformed
/// input (net_wire_test runs the malformed corpus under asan/ubsan).

/// Bumped whenever the byte layout changes; a frame whose version byte
/// differs is rejected so mixed-build clusters fail loudly instead of
/// misinterpreting fields (the versioning rule of docs/wire-format.md).
/// Version 2 began carrying several frames per datagram.
inline constexpr uint8_t kWireVersion = 2;

/// Fixed header size in bytes (everything before the route payload).
inline constexpr size_t kHeaderSize = 54;

/// Route-length cap. Request/reply routes record one entry per tree level
/// visited; even a pathological million-node path-shaped tree stays far
/// below this, so anything larger is a malformed or hostile frame.
inline constexpr size_t kMaxRouteEntries = 1024;

/// Largest frame Serialize can emit / Parse will accept.
inline constexpr size_t kMaxFrameSize = kHeaderSize + 4 * kMaxRouteEntries;

/// Most bytes a sender coalesces into one datagram: the IPv4 UDP payload of
/// a 1500-byte MTU (1500 - 20 - 8), so cluster datagrams never fragment. A
/// frame larger than this travels alone, which keeps every datagram within
/// kMaxFrameSize and lets a receiver size its buffer by that bound.
inline constexpr size_t kDatagramBudget = 1472;
static_assert(kDatagramBudget <= kMaxFrameSize);

/// Message-type codes on the wire. Deliberately decoupled from the
/// MessageType enumerator order so reordering the C++ enum can never
/// silently change the protocol (rethinkdb net_structs / DTun DProtocol
/// style: explicit stable codes, 0 reserved as invalid).
enum MsgCode : uint8_t {
  kMsgCodeInvalid = 0x00,
  kMsgCodeRequest = 0x01,
  kMsgCodeReply = 0x02,
  kMsgCodePush = 0x03,
  kMsgCodeSubscribe = 0x04,
  kMsgCodeUnsubscribe = 0x05,
  kMsgCodeSubstitute = 0x06,
  kMsgCodeInterestRegister = 0x07,
  kMsgCodeInterestDeregister = 0x08,
  kMsgCodeAck = 0x09,
};

/// Flag bits (header offset 2). Unassigned bits must be zero on the wire.
inline constexpr uint8_t kFlagStale = 0x01;
inline constexpr uint8_t kFlagFreeRide = 0x02;
inline constexpr uint8_t kKnownFlagsMask = kFlagStale | kFlagFreeRide;

/// Stable wire code for `type` (never kMsgCodeInvalid).
uint8_t MsgCodeOf(MessageType type);

/// Decodes a wire code; InvalidArgument for unassigned codes.
util::Result<MessageType> MessageTypeFromCode(uint8_t code);

/// Exact encoded size of `message` (header + route payload).
size_t SerializedSize(const Message& message);

/// Checks that `message` is representable on the wire: route within
/// kMaxRouteEntries and expiry finite. Serialize calls this first.
util::Status ValidateForWire(const Message& message);

/// Encodes `message` into `out` (replacing its contents; capacity is
/// reused, so a scratch vector makes steady-state serialization
/// allocation-free). Fails — leaving `out` cleared — iff ValidateForWire
/// fails.
util::Status Serialize(const Message& message, std::vector<uint8_t>* out);

/// Length of the frame that starts at `data[0]` as its header announces it
/// (kHeaderSize + 4 * route_len), for splitting a datagram into frames.
/// Returns `size` when fewer than kHeaderSize bytes remain or the announced
/// frame runs past `size`, so Parse of that span reports the truncation.
/// Validates nothing else; Parse does.
size_t FrameLength(const uint8_t* data, size_t size);

/// Decodes one frame that must occupy `data[0, size)` exactly. On success
/// `*out` holds every field (route storage is reused via assign). On any
/// malformed input returns InvalidArgument with a diagnostic naming the
/// offending field and leaves `*out` unspecified.
util::Status Parse(const uint8_t* data, size_t size, Message* out);

}  // namespace dupnet::net::wire

#endif  // DUP_NET_WIRE_H_
