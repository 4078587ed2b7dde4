//===- shard/Protocol.cpp -------------------------------------------------===//

#include "shard/Protocol.h"

#include "support/Hash.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

using namespace lcdfg;
using namespace lcdfg::shard;
using support::ErrorCode;
using support::Status;

std::string_view shard::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::HaloData:
    return "halo-data";
  case FrameType::HaloResend:
    return "halo-resend";
  case FrameType::Heartbeat:
    return "heartbeat";
  case FrameType::StepDone:
    return "step-done";
  case FrameType::BoxState:
    return "box-state";
  case FrameType::Abort:
    return "abort";
  case FrameType::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

Channel &Channel::operator=(Channel &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void Channel::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

support::Expected<std::pair<Channel, Channel>> Channel::makePair() {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, Fds) != 0)
    return Status::error(ErrorCode::Internal,
                         std::string("socketpair failed: ") +
                             std::strerror(errno));
  return std::make_pair(Channel(Fds[0]), Channel(Fds[1]));
}

Status Channel::send(Frame F, std::size_t TruncateTo) {
  if (Fd < 0)
    return Status::error(ErrorCode::PeerLost, "send on a closed channel");
  F.H.Magic = FrameMagic;
  F.H.PayloadBytes = static_cast<std::uint32_t>(F.Payload.size());
  F.H.Checksum = support::fnv1aBytes(F.Payload.data(), F.Payload.size());
  const std::size_t SendBytes =
      TruncateTo < F.Payload.size() ? TruncateTo : F.Payload.size();

  std::vector<std::uint8_t> Wire(sizeof(FrameHeader) + SendBytes);
  std::memcpy(Wire.data(), &F.H, sizeof(FrameHeader));
  if (SendBytes)
    std::memcpy(Wire.data() + sizeof(FrameHeader), F.Payload.data(),
                SendBytes);
  for (;;) {
    ssize_t Sent = ::send(Fd, Wire.data(), Wire.size(), MSG_NOSIGNAL);
    if (Sent >= 0)
      return Status::ok();
    if (errno == EINTR)
      continue;
    return Status::error(ErrorCode::PeerLost,
                         std::string("send(") +
                             std::string(frameTypeName(F.type())) +
                             ") failed: " + std::strerror(errno));
  }
}

support::Expected<Frame> Channel::recv(int TimeoutMs) {
  if (Fd < 0)
    return Status::error(ErrorCode::PeerLost, "recv on a closed channel");
  struct pollfd P;
  P.fd = Fd;
  P.events = POLLIN;
  P.revents = 0;
  for (;;) {
    int Ready = ::poll(&P, 1, TimeoutMs);
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready == 0)
      return Status::error(ErrorCode::ExchangeTimeout,
                           "no frame within " + std::to_string(TimeoutMs) +
                               "ms")
          .withSubcode("timeout");
    break;
  }
  // POLLHUP with queued data still reads the data first; a bare hangup
  // falls through to the Got == 0 EOF below.
  std::vector<std::uint8_t> Wire(sizeof(FrameHeader) + (std::size_t{1} << 20));
  ssize_t Got;
  for (;;) {
    Got = ::recv(Fd, Wire.data(), Wire.size(), 0);
    if (Got < 0 && errno == EINTR)
      continue;
    break;
  }
  if (Got == 0)
    return Status::error(ErrorCode::PeerLost, "peer closed the channel");
  if (Got < 0)
    return Status::error(ErrorCode::PeerLost,
                         std::string("recv failed: ") + std::strerror(errno));
  if (static_cast<std::size_t>(Got) < sizeof(FrameHeader))
    return Status::error(ErrorCode::ExchangeTimeout,
                         "short datagram (" + std::to_string(Got) +
                             " bytes, no full header)")
        .withSubcode("corrupt");

  Frame F;
  std::memcpy(&F.H, Wire.data(), sizeof(FrameHeader));
  if (F.H.Magic != FrameMagic)
    return Status::error(ErrorCode::ExchangeTimeout, "bad frame magic")
        .withSubcode("corrupt");
  const std::size_t Body = static_cast<std::size_t>(Got) - sizeof(FrameHeader);
  if (Body != F.H.PayloadBytes)
    return Status::error(ErrorCode::ExchangeTimeout,
                         std::string(frameTypeName(F.type())) +
                             " payload truncated (" + std::to_string(Body) +
                             " of " + std::to_string(F.H.PayloadBytes) +
                             " bytes)")
        .withSubcode("corrupt");
  F.Payload.assign(Wire.data() + sizeof(FrameHeader),
                   Wire.data() + sizeof(FrameHeader) + Body);
  if (support::fnv1aBytes(F.Payload.data(), F.Payload.size()) != F.H.Checksum)
    return Status::error(ErrorCode::ExchangeTimeout,
                         std::string(frameTypeName(F.type())) +
                             " payload checksum mismatch")
        .withSubcode("corrupt");
  return F;
}

std::vector<std::size_t> shard::pollReadable(const std::vector<int> &Fds,
                                             int TimeoutMs) {
  std::vector<struct pollfd> Ps;
  Ps.reserve(Fds.size());
  for (int Fd : Fds) {
    struct pollfd P;
    P.fd = Fd; // poll ignores negative fds, which keeps indices aligned
    P.events = POLLIN;
    P.revents = 0;
    Ps.push_back(P);
  }
  for (;;) {
    int Ready = ::poll(Ps.data(), Ps.size(), TimeoutMs);
    if (Ready < 0 && errno == EINTR)
      continue;
    break;
  }
  std::vector<std::size_t> Readable;
  for (std::size_t I = 0; I < Ps.size(); ++I)
    if (Ps[I].revents & (POLLIN | POLLHUP | POLLERR))
      Readable.push_back(I);
  return Readable;
}
