//===- shard/Protocol.h - Checksummed shard message framing -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the sharded runner: fixed-size self-describing
/// frame headers (magic, type, sender rank, step, slab coordinates,
/// payload length, FNV-1a-64 payload checksum) followed by the payload,
/// carried over AF_UNIX SOCK_SEQPACKET socketpairs created before fork.
/// SEQPACKET gives message boundaries and per-channel ordering for free,
/// so a frame either arrives whole or is detectably short — a truncated
/// or checksum-failing datagram surfaces as a non-terminal E019 "corrupt"
/// error the caller answers with a resend request, never as silently
/// wrong data. recv() is poll()-based with a millisecond deadline: EOF or
/// peer reset is terminal E018-peer-lost; an expired deadline is E019
/// "timeout". Sends use MSG_NOSIGNAL so a dead peer is a Status, not a
/// SIGPIPE. Payloads are bounded (chunked by the callers) to stay far
/// under the SEQPACKET datagram limit.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SHARD_PROTOCOL_H
#define LCDFG_SHARD_PROTOCOL_H

#include "support/Status.h"

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lcdfg {
namespace shard {

/// What a frame carries. Halo frames flow worker-to-worker; the rest flow
/// on the coordinator channels.
enum class FrameType : std::uint16_t {
  HaloData = 1, ///< One halo slab's doubles for (Box, Comp, Z0, ZCount).
  HaloResend,   ///< "Resend your step-N halo frames" (BoxIndex -1 = all).
  Heartbeat,    ///< Liveness tick to the coordinator (empty).
  StepDone,     ///< Step finished; payload = per-step stats (int64s).
  BoxState,     ///< Checkpoint chunk of an owned box's interior planes.
  Abort,        ///< Terminal worker error; payload = rendered Status,
                ///  Comp = its support::ErrorCode.
  Shutdown      ///< Coordinator tells a worker to exit cleanly (empty).
};

std::string_view frameTypeName(FrameType T);

/// The fixed wire header. Both ends are fork twins of one process, so
/// layout/endianness agree by construction; Magic still guards against
/// desynchronized streams.
struct FrameHeader {
  std::uint32_t Magic = 0;
  std::uint16_t Type = 0;
  std::uint16_t Rank = 0;   ///< Sender rank (CoordinatorRank for the parent).
  std::int32_t Step = 0;
  std::int32_t BoxIndex = -1;
  std::int32_t Comp = -1;
  std::int32_t Z0 = 0;
  std::int32_t ZCount = 0;
  std::uint32_t PayloadBytes = 0;
  std::uint64_t Checksum = 0; ///< FNV-1a-64 of the payload bytes.
};

inline constexpr std::uint32_t FrameMagic = 0x4c435346; // "LCSF"
inline constexpr std::uint16_t CoordinatorRank = 0xffff;

/// One parsed frame.
struct Frame {
  FrameHeader H;
  std::vector<std::uint8_t> Payload;

  FrameType type() const { return static_cast<FrameType>(H.Type); }
  const double *doubles() const {
    return reinterpret_cast<const double *>(Payload.data());
  }
  std::size_t numDoubles() const { return Payload.size() / sizeof(double); }
};

/// One end of a SEQPACKET socketpair. Move-only; closes on destruction.
class Channel {
public:
  Channel() = default;
  explicit Channel(int Fd) : Fd(Fd) {}
  Channel(Channel &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Channel &operator=(Channel &&O) noexcept;
  Channel(const Channel &) = delete;
  Channel &operator=(const Channel &) = delete;
  ~Channel() { close(); }

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// Creates a connected pair. E015 on resource exhaustion.
  static support::Expected<std::pair<Channel, Channel>> makePair();

  /// Sends \p F as one datagram, finalizing Magic / PayloadBytes /
  /// Checksum from the payload. \p TruncateTo < Payload.size() sends that
  /// many payload bytes while the header still claims (and checksums) the
  /// full length — the msg:truncate fault, detectably corrupt at the
  /// receiver. E018 when the peer is gone.
  support::Status send(Frame F, std::size_t TruncateTo = SIZE_MAX);

  /// Receives one frame, waiting at most \p TimeoutMs (0 = only what is
  /// already queued). Errors: E018 on EOF/reset (terminal), E019 subcode
  /// "timeout" when the deadline passes with nothing queued, E019 subcode
  /// "corrupt" for a short datagram, bad magic, length mismatch, or
  /// checksum failure (non-terminal — ask for a resend).
  support::Expected<Frame> recv(int TimeoutMs);

private:
  int Fd = -1;
};

/// Poll helper: waits up to \p TimeoutMs for any channel in \p Fds to
/// become readable; returns indices into \p Fds that are readable or
/// hung up (empty on timeout).
std::vector<std::size_t> pollReadable(const std::vector<int> &Fds,
                                      int TimeoutMs);

} // namespace shard
} // namespace lcdfg

#endif // LCDFG_SHARD_PROTOCOL_H
