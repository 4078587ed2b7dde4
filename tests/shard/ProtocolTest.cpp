//===- tests/shard/ProtocolTest.cpp ---------------------------------------===//
//
// Wire-protocol framing: corruption must be detectable (never silently
// wrong data), deadlines must surface as E019 "timeout", and peer death
// as terminal E018.
//
//===----------------------------------------------------------------------===//

#include "shard/Protocol.h"

#include "gtest/gtest.h"

#include <cstring>
#include <sys/socket.h>
#include <utility>
#include <vector>

namespace {

using namespace lcdfg;
using namespace lcdfg::shard;
using support::ErrorCode;

Frame makeHaloFrame(const std::vector<double> &Vals) {
  Frame F;
  F.H.Type = static_cast<std::uint16_t>(FrameType::HaloData);
  F.H.Rank = 3;
  F.H.Step = 7;
  F.H.BoxIndex = 5;
  F.H.Comp = 1;
  F.H.Z0 = 2;
  F.H.ZCount = 1;
  F.Payload.resize(Vals.size() * sizeof(double));
  std::memcpy(F.Payload.data(), Vals.data(), F.Payload.size());
  return F;
}

TEST(Channel, RoundTripsAFrame) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);

  const std::vector<double> Vals{1.5, -2.25, 3.75};
  ASSERT_TRUE(A.send(makeHaloFrame(Vals)).isOk());

  auto Got = B.recv(1000);
  ASSERT_TRUE(Got);
  EXPECT_EQ(Got->type(), FrameType::HaloData);
  EXPECT_EQ(Got->H.Rank, 3);
  EXPECT_EQ(Got->H.Step, 7);
  EXPECT_EQ(Got->H.BoxIndex, 5);
  EXPECT_EQ(Got->H.Comp, 1);
  EXPECT_EQ(Got->H.Z0, 2);
  ASSERT_EQ(Got->numDoubles(), Vals.size());
  for (std::size_t I = 0; I < Vals.size(); ++I)
    EXPECT_EQ(Got->doubles()[I], Vals[I]);
}

TEST(Channel, PreservesMessageBoundariesAndOrder) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);
  for (int I = 0; I < 4; ++I) {
    Frame F = makeHaloFrame({static_cast<double>(I)});
    F.H.Step = I;
    ASSERT_TRUE(A.send(std::move(F)).isOk());
  }
  for (int I = 0; I < 4; ++I) {
    auto Got = B.recv(1000);
    ASSERT_TRUE(Got);
    EXPECT_EQ(Got->H.Step, I);
    ASSERT_EQ(Got->numDoubles(), 1u);
    EXPECT_EQ(Got->doubles()[0], static_cast<double>(I));
  }
}

TEST(Channel, TruncatedPayloadIsDetectablyCorrupt) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);

  Frame F = makeHaloFrame({1.0, 2.0, 3.0, 4.0});
  // The msg:truncate fault path: header claims (and checksums) the full
  // payload, the wire carries half of it.
  ASSERT_TRUE(A.send(std::move(F), 2 * sizeof(double)).isOk());

  auto Got = B.recv(1000);
  ASSERT_FALSE(Got);
  support::Status E = Got.takeError();
  EXPECT_EQ(E.code(), ErrorCode::ExchangeTimeout);
  EXPECT_EQ(E.subcode(), "corrupt");
  EXPECT_NE(E.message().find("truncated"), std::string::npos);
}

TEST(Channel, ChecksumMismatchIsCorrupt) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);

  FrameHeader H;
  H.Magic = FrameMagic;
  H.Type = static_cast<std::uint16_t>(FrameType::HaloData);
  H.PayloadBytes = sizeof(double);
  H.Checksum = 0xdeadbeefull; // not FNV-1a of the payload
  std::vector<std::uint8_t> Wire(sizeof(FrameHeader) + sizeof(double), 0);
  std::memcpy(Wire.data(), &H, sizeof(FrameHeader));
  ASSERT_EQ(::send(A.fd(), Wire.data(), Wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Wire.size()));

  auto Got = B.recv(1000);
  ASSERT_FALSE(Got);
  support::Status E = Got.takeError();
  EXPECT_EQ(E.code(), ErrorCode::ExchangeTimeout);
  EXPECT_EQ(E.subcode(), "corrupt");
  EXPECT_NE(E.message().find("checksum"), std::string::npos);
}

TEST(Channel, BadMagicIsCorrupt) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);

  FrameHeader H;
  H.Magic = 0x12345678;
  std::vector<std::uint8_t> Wire(sizeof(FrameHeader), 0);
  std::memcpy(Wire.data(), &H, sizeof(FrameHeader));
  ASSERT_EQ(::send(A.fd(), Wire.data(), Wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Wire.size()));

  auto Got = B.recv(1000);
  ASSERT_FALSE(Got);
  EXPECT_EQ(Got.error().subcode(), "corrupt");
}

TEST(Channel, RecvDeadlineIsATimeoutSubcode) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  auto Got = Pair->second.recv(10);
  ASSERT_FALSE(Got);
  support::Status E = Got.takeError();
  EXPECT_EQ(E.code(), ErrorCode::ExchangeTimeout);
  EXPECT_EQ(E.subcode(), "timeout");
}

TEST(Channel, PeerCloseIsTerminalPeerLost) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);
  A.close();
  auto Got = B.recv(1000);
  ASSERT_FALSE(Got);
  EXPECT_EQ(Got.error().code(), ErrorCode::PeerLost);
}

TEST(PollReadable, IgnoresNegativeFdsAndKeepsIndicesAligned) {
  auto Pair = Channel::makePair();
  ASSERT_TRUE(Pair);
  Channel A = std::move(Pair->first);
  Channel B = std::move(Pair->second);
  ASSERT_TRUE(A.send(makeHaloFrame({1.0})).isOk());

  // Slot 0 is a disabled (finished-rank) channel; slot 1 is readable.
  std::vector<std::size_t> Ready = pollReadable({-1, B.fd()}, 1000);
  ASSERT_EQ(Ready.size(), 1u);
  EXPECT_EQ(Ready.front(), 1u);

  std::vector<std::size_t> None = pollReadable({-1, A.fd()}, 10);
  EXPECT_TRUE(None.empty());
}

} // namespace
