#include "ledger.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

using dupnet::net::Message;
using dupnet::net::MessageType;

TEST(PercentileTest, NearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(&samples, 50.0), 50.0);
  EXPECT_EQ(Percentile(&samples, 99.0), 99.0);
  EXPECT_EQ(Percentile(&samples, 100.0), 100.0);
  std::vector<double> one = {7.0};
  EXPECT_EQ(Percentile(&one, 99.0), 7.0);
  std::vector<double> none;
  EXPECT_EQ(Percentile(&none, 50.0), 0.0);
}

TEST(PercentileTest, HighestSupportedLeavesTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: exactly ten beyond it.
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
}

Rung Passing(double lambda, double fps) {
  Rung r;
  r.lambda = lambda;
  r.frames_per_s = fps;
  r.audit_clean = true;
  r.completed = true;
  r.p99_us = 500.0;
  return r;
}

TEST(LadderTest, HighestRungOfThePassingPrefix) {
  std::vector<Rung> rungs = {Passing(10, 8000), Passing(14, 10000),
                             Passing(20, 11000), Passing(28, 14000)};
  EXPECT_EQ(MaxSustainedFramesPerSecond(rungs, 1000.0), 14000.0);

  rungs[2].frames_lost = 45;  // The cliff: later passes do not count.
  EXPECT_EQ(MaxSustainedFramesPerSecond(rungs, 1000.0), 10000.0);
}

TEST(LadderTest, EachConditionFailsARung) {
  auto first_rung_only = [](Rung bad) {
    return MaxSustainedFramesPerSecond({Passing(10, 8000), bad}, 1000.0);
  };
  Rung rejected = Passing(14, 9000);
  rejected.frames_rejected = 1;
  EXPECT_EQ(first_rung_only(rejected), 8000.0);
  Rung dirty = Passing(14, 9000);
  dirty.audit_clean = false;
  EXPECT_EQ(first_rung_only(dirty), 8000.0);
  Rung slow = Passing(14, 9000);
  slow.p99_us = 1000.5;
  EXPECT_EQ(first_rung_only(slow), 8000.0);
  Rung aborted = Passing(14, 9000);
  aborted.completed = false;
  EXPECT_EQ(first_rung_only(aborted), 8000.0);

  Rung failing_reference = Passing(10, 8000);
  failing_reference.frames_lost = 1;
  EXPECT_EQ(MaxSustainedFramesPerSecond({failing_reference}, 1000.0), 0.0);
}

Message Frame(MessageType type, uint32_t from, uint32_t to, uint32_t origin,
              uint64_t seq = 0) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.origin = origin;
  m.seq = seq;
  return m;
}

TEST(FrameMatcherTest, LostBestEffortFrameDoesNotShiftThePairing) {
  FrameMatcher matcher;
  const Message a = Frame(MessageType::kRequest, 1, 2, 100);
  const Message b = Frame(MessageType::kRequest, 1, 2, 200);
  const Message c = Frame(MessageType::kRequest, 1, 2, 300);
  matcher.OnSend(a, 0);
  matcher.OnSend(b, 10);
  matcher.OnSend(c, 20);
  // `a` is lost; per-pair FIFO would charge b's delivery to a's send.
  EXPECT_EQ(matcher.OnDeliver(b, 15), 5);
  EXPECT_EQ(matcher.OnDeliver(c, 26), 6);
  EXPECT_EQ(matcher.pending(), 1u);
  matcher.Expire(1000, 100);
  EXPECT_EQ(matcher.expired(), 1u);
  EXPECT_EQ(matcher.pending(), 0u);
}

TEST(FrameMatcherTest, IdenticalBestEffortFramesMatchInOrder) {
  FrameMatcher matcher;
  const Message a = Frame(MessageType::kReply, 3, 4, 9);
  matcher.OnSend(a, 0);
  matcher.OnSend(a, 50);
  EXPECT_EQ(matcher.OnDeliver(a, 60), 60);
  EXPECT_EQ(matcher.OnDeliver(a, 70), 20);
  // A third copy (a duplicate on the wire) matches no send.
  EXPECT_EQ(matcher.OnDeliver(a, 80), std::nullopt);
  EXPECT_EQ(matcher.unmatched(), 1u);
}

TEST(FrameMatcherTest, RetransmissionIsChargedFromTheFirstSend) {
  FrameMatcher matcher;
  const Message push = Frame(MessageType::kPush, 0, 5, 0, /*seq=*/7);
  matcher.OnSend(push, 100);  // Lost on the wire.
  matcher.OnSend(push, 400);  // Retransmission after the timeout.
  EXPECT_EQ(matcher.OnDeliver(push, 410), 310);
  // The original turns up late: a duplicate, not a second sample.
  EXPECT_EQ(matcher.OnDeliver(push, 420), std::nullopt);
  EXPECT_EQ(matcher.unmatched(), 1u);
  EXPECT_EQ(matcher.pending(), 0u);
}

TEST(FrameMatcherTest, AckIsKeyedApartFromItsData) {
  FrameMatcher matcher;
  const Message push = Frame(MessageType::kPush, 0, 5, 0, 7);
  const Message ack =
      Frame(MessageType::kAck, 5, 0, dupnet::kInvalidNode, 7);
  matcher.OnSend(push, 0);
  EXPECT_EQ(matcher.OnDeliver(push, 4), 4);
  matcher.OnSend(ack, 5);
  EXPECT_EQ(matcher.OnDeliver(ack, 12), 7);
}

TEST(FrameMatcherTest, DroppedFrameIsForgotten) {
  FrameMatcher matcher;
  const Message a = Frame(MessageType::kRequest, 1, 2, 100);
  matcher.OnSend(a, 0);
  matcher.OnDrop(a);
  EXPECT_EQ(matcher.dropped(), 1u);
  EXPECT_EQ(matcher.pending(), 0u);
  EXPECT_EQ(matcher.OnDeliver(a, 5), std::nullopt);
}

}  // namespace
}  // namespace perfbench
