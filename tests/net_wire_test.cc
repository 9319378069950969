// Tests for the packed binary wire format (docs/wire-format.md): exhaustive
// round-trips over every message type and edge-case field value, the
// malformed-frame corpus (truncation at every byte offset, unknown
// msgcodes, flag/reserved garbage, route overflow, non-finite expiry,
// trailing bytes — every one must come back as a clean util::Status, never
// UB), a live loopback pass through net::UdpTransport, and multi-frame
// datagrams sent raw from a second socket.

#include "net/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/recorder.h"
#include "net/message.h"
#include "net/overlay_network.h"
#include "net/udp_transport.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/str.h"

namespace dupnet::net {
namespace {

const MessageType kAllTypes[] = {
    MessageType::kRequest,      MessageType::kReply,
    MessageType::kPush,         MessageType::kSubscribe,
    MessageType::kUnsubscribe,  MessageType::kSubstitute,
    MessageType::kInterestRegister, MessageType::kInterestDeregister,
    MessageType::kAck,
};

Message RoundTrip(const Message& in) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(wire::Serialize(in, &bytes).ok());
  EXPECT_EQ(bytes.size(), wire::SerializedSize(in));
  Message out;
  const util::Status parsed = wire::Parse(bytes.data(), bytes.size(), &out);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  return out;
}

TEST(WireCodes, AreStableAndExhaustive) {
  // The on-wire codes are a protocol contract, pinned independently of the
  // C++ enum order — reordering MessageType must not change them.
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kRequest), 0x01);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kReply), 0x02);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kPush), 0x03);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kSubscribe), 0x04);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kUnsubscribe), 0x05);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kSubstitute), 0x06);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kInterestRegister), 0x07);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kInterestDeregister), 0x08);
  EXPECT_EQ(wire::MsgCodeOf(MessageType::kAck), 0x09);
  for (MessageType type : kAllTypes) {
    auto back = wire::MessageTypeFromCode(wire::MsgCodeOf(type));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(wire::MessageTypeFromCode(0x00).ok());
  for (int code = 0x0A; code <= 0xFF; ++code) {
    EXPECT_FALSE(wire::MessageTypeFromCode(static_cast<uint8_t>(code)).ok())
        << "code " << code << " should be unassigned";
  }
}

TEST(WireRoundTrip, EveryTypeDefaultFields) {
  for (MessageType type : kAllTypes) {
    Message m;
    m.type = type;
    m.from = 1;
    m.to = 2;
    EXPECT_EQ(RoundTrip(m), m) << MessageTypeToString(type);
  }
}

TEST(WireRoundTrip, EveryTypeEdgeCaseFields) {
  // Every type crossed with the extreme corners of every field: sentinel
  // node ids, saturated counters, negative/huge expiries, both flags, a
  // reliable seq, and a populated route.
  for (MessageType type : kAllTypes) {
    for (int corner = 0; corner < 2; ++corner) {
      Message m;
      m.type = type;
      m.from = corner == 0 ? 0 : kInvalidNode;
      m.to = corner == 0 ? kInvalidNode : 0;
      m.origin = kInvalidNode;
      m.hops = corner == 0 ? 0 : std::numeric_limits<uint32_t>::max();
      m.version = std::numeric_limits<uint64_t>::max();
      m.expiry = corner == 0 ? -1.5e300 : 4.9406564584124654e-324;  // denormal
      m.stale = corner == 1;
      m.free_ride = corner == 0;
      m.seq = corner == 0 ? 0 : std::numeric_limits<uint64_t>::max();
      m.subject = kInvalidNode;
      m.subject2 = corner == 0 ? 7 : kInvalidNode;
      for (uint32_t i = 0; i < 5u + 10u * static_cast<uint32_t>(corner); ++i) {
        m.route.push_back(i * 1000003u);
      }
      EXPECT_EQ(RoundTrip(m), m)
          << MessageTypeToString(type) << " corner " << corner;
    }
  }
}

TEST(WireRoundTrip, NegativeZeroExpiryPreservesBitPattern) {
  Message m;
  m.expiry = -0.0;
  const Message back = RoundTrip(m);
  EXPECT_TRUE(std::signbit(back.expiry));
}

TEST(WireRoundTrip, MaxRouteExactlyAtCap) {
  Message m;
  m.type = MessageType::kReply;
  m.origin = 0;
  for (size_t i = 0; i < wire::kMaxRouteEntries; ++i) {
    m.route.push_back(static_cast<NodeId>(i));
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(wire::Serialize(m, &bytes).ok());
  EXPECT_EQ(bytes.size(), wire::kMaxFrameSize);
  Message out;
  ASSERT_TRUE(wire::Parse(bytes.data(), bytes.size(), &out).ok());
  EXPECT_EQ(out, m);
}

TEST(WireSerialize, RejectsOverCapRoute) {
  Message m;
  m.route.assign(wire::kMaxRouteEntries + 1, 3);
  std::vector<uint8_t> bytes{0xAB};  // Must be cleared on failure.
  EXPECT_TRUE(wire::Serialize(m, &bytes).IsInvalidArgument());
  EXPECT_TRUE(bytes.empty());
}

TEST(WireSerialize, RejectsNonFiniteExpiry) {
  std::vector<uint8_t> bytes;
  Message m;
  m.expiry = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(wire::Serialize(m, &bytes).IsInvalidArgument());
  m.expiry = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(wire::Serialize(m, &bytes).IsInvalidArgument());
}

std::vector<uint8_t> GoldenFrame() {
  Message m;
  m.type = MessageType::kReply;
  m.from = 4;
  m.to = 9;
  m.origin = 17;
  m.hops = 3;
  m.version = 12;
  m.expiry = 60.25;
  m.stale = true;
  m.seq = 5;
  m.route = {17, 6, 2};
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(wire::Serialize(m, &bytes).ok());
  return bytes;
}

TEST(WireParse, TruncationAtEveryByteOffsetIsACleanError) {
  const std::vector<uint8_t> frame = GoldenFrame();
  Message out;
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    const util::Status parsed = wire::Parse(frame.data(), cut, &out);
    EXPECT_TRUE(parsed.IsInvalidArgument()) << "cut at " << cut;
  }
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out).ok());
}

TEST(WireParse, RejectsTrailingBytes) {
  std::vector<uint8_t> frame = GoldenFrame();
  frame.push_back(0x00);
  Message out;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
}

TEST(WireParse, RejectsUnknownMsgCode) {
  std::vector<uint8_t> frame = GoldenFrame();
  Message out;
  for (int code : {0x00, 0x0A, 0x7F, 0xFF}) {
    frame[0] = static_cast<uint8_t>(code);
    EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                    .IsInvalidArgument())
        << "msgcode " << code;
  }
}

TEST(WireParse, RejectsWrongWireVersion) {
  std::vector<uint8_t> frame = GoldenFrame();
  Message out;
  frame[1] = wire::kWireVersion + 1;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
  frame[1] = 0;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
}

TEST(WireParse, RejectsUnknownFlagBits) {
  std::vector<uint8_t> frame = GoldenFrame();
  Message out;
  for (uint8_t bit = 0x04; bit != 0; bit <<= 1) {
    frame[2] = bit;
    EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                    .IsInvalidArgument())
        << "flag bit " << static_cast<int>(bit);
  }
}

TEST(WireParse, RejectsNonZeroReservedByte) {
  std::vector<uint8_t> frame = GoldenFrame();
  frame[3] = 0x01;
  Message out;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
}

TEST(WireParse, RejectsOverCapRouteLength) {
  std::vector<uint8_t> frame = GoldenFrame();
  // Claim a route longer than the cap; the buffer itself stays short, so
  // an implementation that trusted the length would read out of bounds.
  const uint16_t bogus = wire::kMaxRouteEntries + 1;
  frame[52] = static_cast<uint8_t>(bogus);
  frame[53] = static_cast<uint8_t>(bogus >> 8);
  Message out;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
}

TEST(WireParse, RejectsRouteLengthBeyondBuffer) {
  std::vector<uint8_t> frame = GoldenFrame();
  frame[52] = 200;  // In-cap claim, but the payload is 3 entries.
  frame[53] = 0;
  Message out;
  EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                  .IsInvalidArgument());
}

TEST(WireParse, RejectsNonFiniteExpiryPayload) {
  std::vector<uint8_t> frame = GoldenFrame();
  Message out;
  // Overwrite the expiry with the IEEE-754 bit patterns of +inf and NaN.
  const uint64_t patterns[] = {0x7FF0000000000000ull, 0x7FF8000000000001ull};
  for (const uint64_t bits : patterns) {
    for (int i = 0; i < 8; ++i) {
      frame[28 + i] = static_cast<uint8_t>(bits >> (8 * i));
    }
    EXPECT_TRUE(wire::Parse(frame.data(), frame.size(), &out)
                    .IsInvalidArgument());
  }
}

TEST(WireParse, ReusesRouteStorage) {
  Message out;
  out.route.assign(64, 9);  // Stale content must be fully replaced.
  const std::vector<uint8_t> frame = GoldenFrame();
  ASSERT_TRUE(wire::Parse(frame.data(), frame.size(), &out).ok());
  EXPECT_EQ(out.route, (std::vector<NodeId>{17, 6, 2}));
}

TEST(MessageEquality, DetectsEveryFieldDifference) {
  const auto base = [] {
    Message m;
    m.route = {1, 2};
    return m;
  };
  Message a = base();
  EXPECT_EQ(a, base());
  a.type = MessageType::kPush;
  EXPECT_NE(a, base());
  a = base();
  a.expiry = 1.0;
  EXPECT_NE(a, base());
  a = base();
  a.free_ride = true;
  EXPECT_NE(a, base());
  a = base();
  a.route.push_back(3);
  EXPECT_NE(a, base());
}

// --- Live socket pass ------------------------------------------------------

TEST(UdpTransportTest, LoopbackWireDeliversThroughRealSocket) {
  sim::Engine engine;
  util::Rng rng(7);
  metrics::Recorder recorder;
  OverlayNetwork network(&engine, &rng, &recorder, 0.1);
  struct Log : public MessageSink {
    std::vector<Message> messages;
    void OnMessage(const Message& m) override { messages.push_back(m); }
  } log;
  network.set_sink(&log);
  const std::vector<Message>& delivered = log.messages;

  UdpTransport transport;
  UdpTransport::Options options;
  options.rank = 0;
  options.loopback_wire = true;
  // The test may share a host with parallel jobs; probe a few ports.
  util::Status opened = util::Status::Unavailable("no port tried");
  for (int attempt = 0; attempt < 16 && !opened.ok(); ++attempt) {
    options.peers = {util::StrFormat(
        "127.0.0.1:%d", 21000 + (::getpid() + attempt * 131) % 20000)};
    opened = transport.Open(options);
  }
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  transport.set_network(&network);
  network.set_transport(&transport);

  Message m;
  m.type = MessageType::kPush;
  m.from = 1;
  m.to = 2;
  m.version = 42;
  m.expiry = 9.5;
  m.route = {1, 2, 3};
  network.Send(m);
  EXPECT_EQ(transport.frames_shipped(), 1u);
  EXPECT_TRUE(delivered.empty());  // On the wire, not in the engine.

  auto pumped = transport.Pump(/*timeout_ms=*/2000);
  ASSERT_TRUE(pumped.ok()) << pumped.status().ToString();
  EXPECT_EQ(*pumped, 1u);
  EXPECT_EQ(transport.frames_received(), 1u);
  EXPECT_EQ(transport.frames_rejected(), 0u);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], m);
}

// A loopback-wire transport fed raw datagrams from a second socket, so a
// test controls exactly which frames share a datagram.
class DatagramTest : public ::testing::Test {
 protected:
  struct Log : public MessageSink {
    std::vector<Message> messages;
    void OnMessage(const Message& m) override { messages.push_back(m); }
  };

  DatagramTest() : network_(&engine_, &rng_, &recorder_, 0.1) {}
  ~DatagramTest() override {
    if (sender_ >= 0) ::close(sender_);
  }

  void SetUp() override {
    network_.set_sink(&log_);
    UdpTransport::Options options;
    options.loopback_wire = true;
    util::Status opened = util::Status::Unavailable("no port tried");
    int port = 0;
    for (int attempt = 0; attempt < 16 && !opened.ok(); ++attempt) {
      port = 21000 + (::getpid() + 7 + attempt * 131) % 20000;
      options.peers = {util::StrFormat("127.0.0.1:%d", port)};
      opened = transport_.Open(options);
    }
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    transport_.set_network(&network_);
    network_.set_transport(&transport_);
    sender_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(sender_, 0);
    dest_.sin_family = AF_INET;
    dest_.sin_port = htons(static_cast<uint16_t>(port));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &dest_.sin_addr), 1);
  }

  // A best-effort push (seq 0, so delivery sends no ack back).
  static Message Push(uint64_t version, size_t route_len = 2) {
    Message m;
    m.type = MessageType::kPush;
    m.from = 1;
    m.to = 2;
    m.version = version;
    m.expiry = 9.5;
    for (size_t i = 0; i < route_len; ++i) {
      m.route.push_back(static_cast<NodeId>(i));
    }
    return m;
  }

  static void Append(const Message& m, std::vector<uint8_t>* datagram) {
    std::vector<uint8_t> frame;
    ASSERT_TRUE(wire::Serialize(m, &frame).ok());
    datagram->insert(datagram->end(), frame.begin(), frame.end());
  }

  void SendRaw(const std::vector<uint8_t>& datagram) {
    const ssize_t sent =
        ::sendto(sender_, datagram.data(), datagram.size(), 0,
                 reinterpret_cast<const sockaddr*>(&dest_), sizeof(dest_));
    ASSERT_EQ(sent, static_cast<ssize_t>(datagram.size()));
  }

  size_t Pump() {
    auto pumped = transport_.Pump(/*timeout_ms=*/2000);
    EXPECT_TRUE(pumped.ok()) << pumped.status().ToString();
    EXPECT_TRUE(transport_.outbox_empty());
    return pumped.ok() ? *pumped : 0;
  }

  sim::Engine engine_;
  util::Rng rng_{7};
  metrics::Recorder recorder_;
  OverlayNetwork network_;
  Log log_;
  UdpTransport transport_;
  int sender_ = -1;
  sockaddr_in dest_{};
};

TEST_F(DatagramTest, ThreeFrameDatagramDeliversAllInOrder) {
  std::vector<uint8_t> datagram;
  Append(Push(1), &datagram);
  Append(Push(2, 0), &datagram);
  Append(Push(3, 5), &datagram);
  SendRaw(datagram);
  EXPECT_EQ(Pump(), 3u);
  EXPECT_EQ(log_.messages,
            (std::vector<Message>{Push(1), Push(2, 0), Push(3, 5)}));
  EXPECT_EQ(transport_.frames_received(), 3u);
  EXPECT_EQ(transport_.frames_rejected(), 0u);
}

TEST_F(DatagramTest, BadFrameDropsTheRestOfItsDatagramOnly) {
  // A malformed frame and a truncated trailing frame each end the datagram:
  // the frames before it arrive, it counts once, the next datagram arrives.
  for (const bool truncated : {false, true}) {
    SCOPED_TRACE(truncated ? "truncated" : "malformed");
    log_.messages.clear();
    const uint64_t rejected0 = transport_.frames_rejected();
    std::vector<uint8_t> datagram;
    Append(Push(1), &datagram);
    Append(Push(2), &datagram);
    const size_t bad = datagram.size();
    Append(Push(3), &datagram);
    if (truncated) {
      datagram.resize(datagram.size() - 5);
    } else {
      datagram[bad] = wire::kMsgCodeInvalid;
      Append(Push(4), &datagram);
    }
    SendRaw(datagram);
    EXPECT_EQ(Pump(), 2u);
    EXPECT_EQ(log_.messages, (std::vector<Message>{Push(1), Push(2)}));
    EXPECT_EQ(transport_.frames_rejected(), rejected0 + 1);

    std::vector<uint8_t> next;
    Append(Push(5), &next);
    SendRaw(next);
    EXPECT_EQ(Pump(), 1u);
    EXPECT_EQ(log_.messages.back(), Push(5));
    EXPECT_EQ(transport_.frames_rejected(), rejected0 + 1);
  }
}

TEST_F(DatagramTest, ShipCoalescesAndAnOverBudgetFrameTravelsAlone) {
  const Message big = Push(3, 400);  // 54 + 4 * 400 bytes.
  ASSERT_GT(wire::SerializedSize(big), wire::kDatagramBudget);
  const std::vector<Message> sent = {Push(1), Push(2), big, Push(4)};
  for (const Message& m : sent) network_.Send(m);
  EXPECT_EQ(transport_.frames_shipped(), 4u);
  // The two small frames shared a datagram that the big frame flushed; the
  // big one was flushed by the last frame, which Pump sends.
  EXPECT_EQ(transport_.datagrams_shipped(), 2u);
  EXPECT_FALSE(transport_.outbox_empty());
  EXPECT_EQ(Pump(), 4u);
  EXPECT_EQ(transport_.datagrams_shipped(), 3u);
  EXPECT_EQ(transport_.datagrams_dropped(), 0u);
  EXPECT_EQ(log_.messages, sent);
  EXPECT_EQ(transport_.frames_rejected(), 0u);
}

TEST(UdpTransportTest, RejectsMalformedPeerEndpoints) {
  for (const char* bad : {"localhost", "127.0.0.1:", ":4000", "127.0.0.1:0",
                          "127.0.0.1:70000", "127.0.0.1:4x0", "nothost:80"}) {
    UdpTransport transport;
    UdpTransport::Options options;
    options.peers = {bad};
    EXPECT_TRUE(transport.Open(options).IsInvalidArgument()) << bad;
  }
}

}  // namespace
}  // namespace dupnet::net
