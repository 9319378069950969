#include "net/wire.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "util/str.h"

namespace dupnet::net::wire {
namespace {

using util::Result;
using util::Status;

// Byte-order helpers. Explicit shift-based little-endian codecs keep the
// format well-defined on any host and avoid alignment/aliasing UB (all
// access goes through byte writes/reads, never reinterpret_cast).
void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

// Header field offsets (see the layout table in wire.h).
constexpr size_t kOffMsgCode = 0;
constexpr size_t kOffVersionByte = 1;
constexpr size_t kOffFlags = 2;
constexpr size_t kOffReserved = 3;
constexpr size_t kOffFrom = 4;
constexpr size_t kOffTo = 8;
constexpr size_t kOffOrigin = 12;
constexpr size_t kOffHops = 16;
constexpr size_t kOffVersion = 20;
constexpr size_t kOffExpiry = 28;
constexpr size_t kOffSeq = 36;
constexpr size_t kOffSubject = 44;
constexpr size_t kOffSubject2 = 48;
constexpr size_t kOffRouteLen = 52;

static_assert(kOffRouteLen + 2 == kHeaderSize,
              "field offsets must tile the fixed header exactly");
static_assert(kMaxFrameSize <= 65507,
              "a frame must fit one UDP datagram payload");

}  // namespace

uint8_t MsgCodeOf(MessageType type) {
  switch (type) {
    case MessageType::kRequest:
      return kMsgCodeRequest;
    case MessageType::kReply:
      return kMsgCodeReply;
    case MessageType::kPush:
      return kMsgCodePush;
    case MessageType::kSubscribe:
      return kMsgCodeSubscribe;
    case MessageType::kUnsubscribe:
      return kMsgCodeUnsubscribe;
    case MessageType::kSubstitute:
      return kMsgCodeSubstitute;
    case MessageType::kInterestRegister:
      return kMsgCodeInterestRegister;
    case MessageType::kInterestDeregister:
      return kMsgCodeInterestDeregister;
    case MessageType::kAck:
      return kMsgCodeAck;
  }
  return kMsgCodeInvalid;
}

Result<MessageType> MessageTypeFromCode(uint8_t code) {
  switch (code) {
    case kMsgCodeRequest:
      return MessageType::kRequest;
    case kMsgCodeReply:
      return MessageType::kReply;
    case kMsgCodePush:
      return MessageType::kPush;
    case kMsgCodeSubscribe:
      return MessageType::kSubscribe;
    case kMsgCodeUnsubscribe:
      return MessageType::kUnsubscribe;
    case kMsgCodeSubstitute:
      return MessageType::kSubstitute;
    case kMsgCodeInterestRegister:
      return MessageType::kInterestRegister;
    case kMsgCodeInterestDeregister:
      return MessageType::kInterestDeregister;
    case kMsgCodeAck:
      return MessageType::kAck;
    default:
      return Status::InvalidArgument(
          util::StrFormat("unknown msgcode 0x%02x", code));
  }
}

size_t SerializedSize(const Message& message) {
  return kHeaderSize + 4 * message.route.size();
}

Status ValidateForWire(const Message& message) {
  if (message.route.size() > kMaxRouteEntries) {
    return Status::InvalidArgument(util::StrFormat(
        "route has %zu entries, wire cap is %zu", message.route.size(),
        kMaxRouteEntries));
  }
  if (!std::isfinite(message.expiry)) {
    return Status::InvalidArgument(
        "expiry must be finite to be wire-representable");
  }
  return Status::OK();
}

Status Serialize(const Message& message, std::vector<uint8_t>* out) {
  out->clear();
  DUP_RETURN_IF_ERROR(ValidateForWire(message));
  out->resize(SerializedSize(message));
  uint8_t* p = out->data();
  p[kOffMsgCode] = MsgCodeOf(message.type);
  p[kOffVersionByte] = kWireVersion;
  uint8_t flags = 0;
  if (message.stale) flags |= kFlagStale;
  if (message.free_ride) flags |= kFlagFreeRide;
  p[kOffFlags] = flags;
  p[kOffReserved] = 0;
  PutU32(p + kOffFrom, message.from);
  PutU32(p + kOffTo, message.to);
  PutU32(p + kOffOrigin, message.origin);
  PutU32(p + kOffHops, message.hops);
  PutU64(p + kOffVersion, message.version);
  PutU64(p + kOffExpiry, std::bit_cast<uint64_t>(message.expiry));
  PutU64(p + kOffSeq, message.seq);
  PutU32(p + kOffSubject, message.subject);
  PutU32(p + kOffSubject2, message.subject2);
  PutU16(p + kOffRouteLen, static_cast<uint16_t>(message.route.size()));
  uint8_t* route = p + kHeaderSize;
  for (size_t i = 0; i < message.route.size(); ++i) {
    PutU32(route + 4 * i, message.route[i]);
  }
  return Status::OK();
}

size_t FrameLength(const uint8_t* data, size_t size) {
  if (size < kHeaderSize) return size;
  const size_t length = kHeaderSize + 4 * size_t{GetU16(data + kOffRouteLen)};
  return length <= size ? length : size;
}

Status Parse(const uint8_t* data, size_t size, Message* out) {
  if (size < kHeaderSize) {
    return Status::InvalidArgument(util::StrFormat(
        "truncated frame: %zu bytes, header needs %zu", size, kHeaderSize));
  }
  if (data[kOffVersionByte] != kWireVersion) {
    return Status::InvalidArgument(util::StrFormat(
        "wire version mismatch: frame says %u, this build speaks %u",
        data[kOffVersionByte], kWireVersion));
  }
  auto type = MessageTypeFromCode(data[kOffMsgCode]);
  DUP_RETURN_IF_ERROR(type.status());
  const uint8_t flags = data[kOffFlags];
  if ((flags & ~kKnownFlagsMask) != 0) {
    return Status::InvalidArgument(
        util::StrFormat("unknown flag bits 0x%02x", flags & ~kKnownFlagsMask));
  }
  if (data[kOffReserved] != 0) {
    return Status::InvalidArgument(util::StrFormat(
        "reserved header byte must be zero, got 0x%02x", data[kOffReserved]));
  }
  const size_t route_len = GetU16(data + kOffRouteLen);
  if (route_len > kMaxRouteEntries) {
    return Status::InvalidArgument(util::StrFormat(
        "route length %zu exceeds wire cap %zu", route_len, kMaxRouteEntries));
  }
  const size_t expected = kHeaderSize + 4 * route_len;
  if (size < expected) {
    return Status::InvalidArgument(util::StrFormat(
        "truncated frame: %zu bytes, route of %zu entries needs %zu", size,
        route_len, expected));
  }
  if (size > expected) {
    return Status::InvalidArgument(util::StrFormat(
        "oversized frame: %zu bytes, expected exactly %zu", size, expected));
  }
  const double expiry = std::bit_cast<double>(GetU64(data + kOffExpiry));
  if (!std::isfinite(expiry)) {
    return Status::InvalidArgument("non-finite expiry payload");
  }
  out->type = *type;
  out->from = GetU32(data + kOffFrom);
  out->to = GetU32(data + kOffTo);
  out->origin = GetU32(data + kOffOrigin);
  out->hops = GetU32(data + kOffHops);
  out->version = GetU64(data + kOffVersion);
  out->expiry = expiry;
  out->stale = (flags & kFlagStale) != 0;
  out->free_ride = (flags & kFlagFreeRide) != 0;
  out->seq = GetU64(data + kOffSeq);
  out->subject = GetU32(data + kOffSubject);
  out->subject2 = GetU32(data + kOffSubject2);
  out->route.clear();
  out->route.reserve(route_len);
  const uint8_t* route = data + kHeaderSize;
  for (size_t i = 0; i < route_len; ++i) {
    out->route.push_back(GetU32(route + 4 * i));
  }
  return Status::OK();
}

}  // namespace dupnet::net::wire
