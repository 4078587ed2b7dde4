//===- shard/ShardRunner.cpp ----------------------------------------------===//

#include "shard/ShardRunner.h"

#include "exec/FaultInjector.h"
#include "obs/Trace.h"
#include "shard/Protocol.h"
#include "shard/Topology.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <tuple>
#include <unistd.h>

using namespace lcdfg;
using namespace lcdfg::shard;
using support::ErrorCode;
using support::Status;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t msSince(Clock::time_point T0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               T0)
      .count();
}

/// Fork-safe parallel-for over [0, Count) on plain std::threads. Workers
/// must not touch the global ThreadPool: fork only duplicates the calling
/// thread, so the pool's workers do not exist in a child.
template <typename Fn>
void localParallelFor(int Count, int Threads, const Fn &Body) {
  if (Threads <= 1 || Count <= 1) {
    for (int I = 0; I < Count; ++I)
      Body(I);
    return;
  }
  std::atomic<int> NextItem{0};
  auto Work = [&] {
    for (int I; (I = NextItem.fetch_add(1)) < Count;)
      Body(I);
  };
  std::vector<std::thread> Helpers;
  const int Spawn = std::min(Threads, Count) - 1;
  Helpers.reserve(static_cast<std::size_t>(Spawn));
  for (int T = 0; T < Spawn; ++T)
    Helpers.emplace_back(Work);
  Work();
  for (std::thread &H : Helpers)
    H.join();
}

/// Packs interior z-planes [Z0, Z0+ZCount) of component \p C (full Y/X
/// interior extent) into doubles, z-major then y then x.
std::vector<std::uint8_t> packPlanes(const rt::Box &B, int C, int Z0,
                                     int ZCount) {
  const int N = B.size();
  std::vector<std::uint8_t> Payload(static_cast<std::size_t>(ZCount) *
                                    static_cast<std::size_t>(N) *
                                    static_cast<std::size_t>(N) *
                                    sizeof(double));
  auto *Out = reinterpret_cast<double *>(Payload.data());
  for (int Z = Z0; Z < Z0 + ZCount; ++Z)
    for (int Y = 0; Y < N; ++Y)
      for (int X = 0; X < N; ++X)
        *Out++ = B.at(C, Z, Y, X);
  return Payload;
}

/// Inverse of packPlanes.
void unpackPlanes(rt::Box &B, int C, int Z0, int ZCount, const double *In) {
  const int N = B.size();
  for (int Z = Z0; Z < Z0 + ZCount; ++Z)
    for (int Y = 0; Y < N; ++Y)
      for (int X = 0; X < N; ++X)
        B.at(C, Z, Y, X) = *In++;
}

/// Checkpoint chunking: z-planes per BoxState frame, sized to keep each
/// datagram around 32KB regardless of N.
int chunkPlanes(int N) {
  int Planes = 4096 / (N * N);
  return Planes < 1 ? 1 : Planes;
}

constexpr int MaxResendRetries = 6;
constexpr int InitialBackoffMs = 25;
constexpr std::size_t StepDoneInts = 6; // exch, bytes, retries, timeouts,
                                        // peers-lost, exchange-nanos

struct StepStats {
  std::int64_t Exchanges = 0;
  std::int64_t Bytes = 0;
  std::int64_t Retries = 0;
  std::int64_t Timeouts = 0;
  std::int64_t PeersLost = 0;
  std::int64_t ExchangeNanos = 0;
};

//===----------------------------------------------------------------------===//
// Worker
//===----------------------------------------------------------------------===//

/// The poison ledger for msg faults. A fired msg fault does not merely
/// perturb one transmission — it poisons that frame for the step, so
/// resend recovery cannot paper over a drop or repeated truncation and
/// the acceptance fault matrix genuinely reaches L009 (a *short* delay,
/// below the deadline, is the recoverable case by design).
using FrameKey = std::tuple<int, int, int, int>; // step, box, comp, z0

struct Worker {
  int Rank = 0;
  rt::GridLayout Layout;
  SlabPartition Part;
  ExchangePlan Plan;
  ShardOptions Opts;
  int Steps = 0;
  const StepFn *Fn = nullptr;

  std::vector<rt::Box> *Boxes = nullptr;
  int N = 0, G = 0, NumComp = 0;

  Channel Coord, Prev, Next;

  std::vector<int> Owned;            ///< Owned box indices.
  std::vector<int> InteriorBoxes;    ///< Owned boxes needing no remote data.
  std::vector<int> BoundaryBoxes;    ///< Owned boxes in the first/last row.
  std::map<int, std::size_t> Dense;  ///< Owned box index -> NextState slot.
  std::vector<rt::Box> NextState;

  std::map<FrameKey, exec::FaultKind> Poison;
  /// Sent halo frames of the current and previous step, replayed on
  /// HaloResend (a peer may lag one full step behind).
  std::map<int, std::vector<std::pair<bool, Frame>>> SentCache; // ToPrev?
  std::vector<Frame> FutureHalos;

  StepStats Stats;

  [[noreturn]] void fail(Status S, int Step) {
    Frame F;
    F.H.Type = static_cast<std::uint16_t>(FrameType::Abort);
    F.H.Rank = static_cast<std::uint16_t>(Rank);
    F.H.Step = Step;
    F.H.Comp = static_cast<std::int32_t>(S.code());
    const std::string Text = S.toString();
    F.Payload.assign(Text.begin(), Text.end());
    (void)Coord.send(std::move(F)); // best effort; the coordinator also
                                    // notices EOF and reaped children
    _exit(1);
  }

  void sendControl(FrameType T, int Step, const std::uint8_t *Data,
                   std::size_t Len) {
    Frame F;
    F.H.Type = static_cast<std::uint16_t>(T);
    F.H.Rank = static_cast<std::uint16_t>(Rank);
    F.H.Step = Step;
    if (Len)
      F.Payload.assign(Data, Data + Len);
    if (Status S = Coord.send(std::move(F)); !S)
      _exit(1); // coordinator is gone; nothing left to report to
  }

  /// Transmits \p F honoring a poison entry: Drop never reaches the wire,
  /// Truncate halves the payload on EVERY transmission, Delay sleeps
  /// DelayMs before the first transmission only (\p FirstSend).
  void transmit(Channel &Ch, const Frame &F, bool FirstSend) {
    const FrameKey Key{F.H.Step, F.H.BoxIndex, F.H.Comp, F.H.Z0};
    exec::FaultKind Fault = exec::FaultKind::None;
    if (auto It = Poison.find(Key); It != Poison.end())
      Fault = It->second;

    std::size_t TruncateTo = SIZE_MAX;
    switch (Fault) {
    case exec::FaultKind::Drop:
      return; // never sent; resend requests find the poison entry again
    case exec::FaultKind::Truncate:
      TruncateTo = F.Payload.size() / 2;
      break;
    case exec::FaultKind::Delay:
      if (FirstSend)
        std::this_thread::sleep_for(std::chrono::milliseconds(Opts.DelayMs));
      break;
    default:
      break;
    }
    const std::size_t Sent = std::min(TruncateTo, F.Payload.size());
    if (Ch.send(F, TruncateTo))
      Stats.Bytes += static_cast<std::int64_t>(Sent);
    // A failed send surfaces as the peer's E018/E019; our own gather or
    // the coordinator channel reports the terminal condition.
  }

  /// Builds, caches, and sends one halo frame, probing the msg fault site
  /// (each first transmission is one occurrence).
  void sendHalo(Channel &Ch, bool ToPrev, int Step, const HaloSlab &Slab,
                int C) {
    Frame F;
    F.H.Type = static_cast<std::uint16_t>(FrameType::HaloData);
    F.H.Rank = static_cast<std::uint16_t>(Rank);
    F.H.Step = Step;
    F.H.BoxIndex = Slab.BoxIndex;
    F.H.Comp = C;
    F.H.Z0 = Slab.Z0;
    F.H.ZCount = Slab.ZCount;
    F.Payload = packPlanes((*Boxes)[static_cast<std::size_t>(Slab.BoxIndex)],
                           C, Slab.Z0, Slab.ZCount);

    const exec::FaultKind Fault =
        exec::FaultInjector::global().fire(exec::FaultSite::Msg);
    if (Fault != exec::FaultKind::None)
      Poison[{Step, Slab.BoxIndex, C, Slab.Z0}] = Fault;

    SentCache[Step].push_back({ToPrev, F});
    transmit(Ch, F, /*FirstSend=*/true);
  }

  void answerResend(bool FromPrev, int Step) {
    auto It = SentCache.find(Step);
    if (It == SentCache.end())
      return;
    // The requester is our prev peer iff the request arrived on the prev
    // channel; replay the CACHED frames originally sent that way (the
    // live boxes may already hold a later step's state).
    for (auto &[ToPrev, F] : It->second)
      if (ToPrev == FromPrev)
        transmit(FromPrev ? Prev : Next, F, /*FirstSend=*/false);
  }

  void requestResend(Channel &Ch, int Step) {
    Frame F;
    F.H.Type = static_cast<std::uint16_t>(FrameType::HaloResend);
    F.H.Rank = static_cast<std::uint16_t>(Rank);
    F.H.Step = Step;
    F.H.BoxIndex = -1;
    (void)Ch.send(std::move(F));
    ++Stats.Retries;
  }

  /// Applies a validated halo frame into the adjacent-row box it refreshes.
  void applyHalo(const Frame &F) {
    unpackPlanes((*Boxes)[static_cast<std::size_t>(F.H.BoxIndex)], F.H.Comp,
                 F.H.Z0, F.H.ZCount, F.doubles());
  }

  /// Collects every expected halo slab for \p Step, answering peers'
  /// resend requests along the way. Bounded retries with exponential
  /// backoff inside the LCDFG_SHARD_TIMEOUT_MS deadline; terminal E018 on
  /// peer EOF, terminal E019 when the deadline or retry budget runs out.
  Status gatherHalos(int Step) {
    std::map<FrameKey, bool> Expected;
    for (const HaloSlab &S : Plan.RecvPrev)
      for (int C = 0; C < NumComp; ++C)
        Expected[{Step, S.BoxIndex, C, S.Z0}] = false;
    for (const HaloSlab &S : Plan.RecvNext)
      for (int C = 0; C < NumComp; ++C)
        Expected[{Step, S.BoxIndex, C, S.Z0}] = false;
    std::size_t Missing = Expected.size();

    auto Accept = [&](const Frame &F) {
      if (F.H.Step < Step)
        return; // stale duplicate
      if (F.H.Step > Step) {
        FutureHalos.push_back(F); // a peer already running the next step
        return;
      }
      auto It = Expected.find({Step, F.H.BoxIndex, F.H.Comp, F.H.Z0});
      if (It == Expected.end() || It->second)
        return;
      applyHalo(F);
      It->second = true;
      --Missing;
    };

    std::vector<Frame> Buffered;
    Buffered.swap(FutureHalos);
    for (Frame &F : Buffered)
      Accept(F);

    const auto T0 = Clock::now();
    int BackoffMs = InitialBackoffMs;
    int Retries = 0;
    while (Missing > 0) {
      const std::int64_t Elapsed = msSince(T0);
      if (Elapsed >= Opts.TimeoutMs || Retries > MaxResendRetries) {
        ++Stats.Timeouts;
        return Status::error(
                   ErrorCode::ExchangeTimeout,
                   "rank " + std::to_string(Rank) + " step " +
                       std::to_string(Step) + ": " +
                       std::to_string(Missing) +
                       " halo frame(s) unrecovered after " +
                       std::to_string(Retries) + " resend request(s) in " +
                       std::to_string(Elapsed) + "ms")
            .withContext("gathering halo slabs");
      }
      const int Slice = static_cast<int>(
          std::min<std::int64_t>(BackoffMs, Opts.TimeoutMs - Elapsed));
      std::vector<int> Fds{Prev.fd(), Next.fd()};
      std::vector<std::size_t> Ready = pollReadable(Fds, Slice);
      if (Ready.empty()) {
        // Nothing in flight: nudge both peers and back off. Transient
        // stalls (a delayed frame, a peer mid-compute) recover here.
        requestResend(Prev, Step);
        if (Next.fd() != Prev.fd())
          requestResend(Next, Step);
        ++Retries;
        BackoffMs *= 2;
        continue;
      }
      for (std::size_t Idx : Ready) {
        Channel &Ch = Idx == 0 ? Prev : Next;
        auto F = Ch.recv(0);
        if (!F) {
          const Status &E = F.error();
          if (E.code() == ErrorCode::PeerLost) {
            ++Stats.PeersLost;
            return Status::error(ErrorCode::PeerLost,
                                 "rank " + std::to_string(Rank) + " step " +
                                     std::to_string(Step) + ": " +
                                     (Idx == 0 ? "prev" : "next") +
                                     " peer lost (" + E.message() + ")")
                .withContext("gathering halo slabs");
          }
          if (E.subcode() == "corrupt") {
            // Identifiably damaged: ask for a replay and keep draining.
            requestResend(Ch, Step);
            ++Retries;
          }
          continue; // timeout subcode: queue raced empty, poll again
        }
        switch (F->type()) {
        case FrameType::HaloData:
          Accept(*F);
          break;
        case FrameType::HaloResend:
          answerResend(/*FromPrev=*/Idx == 0, F->H.Step);
          break;
        default:
          break; // heartbeats etc. have no meaning between workers
        }
      }
    }
    return Status::ok();
  }

  void computeBoxes(const std::vector<int> &Indices) {
    localParallelFor(
        static_cast<int>(Indices.size()), Opts.Threads, [&](int I) {
          const int BoxIdx = Indices[static_cast<std::size_t>(I)];
          rt::fillGhostsOfBox(*Boxes, Layout, BoxIdx);
          (*Fn)((*Boxes)[static_cast<std::size_t>(BoxIdx)],
                NextState[Dense.at(BoxIdx)]);
        });
  }

  void checkpoint(int Step) {
    const int Chunk = chunkPlanes(N);
    for (int BoxIdx : Owned)
      for (int C = 0; C < NumComp; ++C)
        for (int Z0 = 0; Z0 < N; Z0 += Chunk) {
          const int ZCount = std::min(Chunk, N - Z0);
          Frame F;
          F.H.Type = static_cast<std::uint16_t>(FrameType::BoxState);
          F.H.Rank = static_cast<std::uint16_t>(Rank);
          F.H.Step = Step;
          F.H.BoxIndex = BoxIdx;
          F.H.Comp = C;
          F.H.Z0 = Z0;
          F.H.ZCount = ZCount;
          F.Payload = packPlanes((*Boxes)[static_cast<std::size_t>(BoxIdx)],
                                 C, Z0, ZCount);
          if (!Coord.send(std::move(F)))
            _exit(1);
        }
    std::int64_t Done[StepDoneInts] = {Stats.Exchanges, Stats.Bytes,
                                       Stats.Retries,   Stats.Timeouts,
                                       Stats.PeersLost, Stats.ExchangeNanos};
    sendControl(FrameType::StepDone, Step,
                reinterpret_cast<const std::uint8_t *>(Done), sizeof(Done));
    Stats = StepStats{};
  }

  [[noreturn]] void run() {
    for (int BoxIdx : Owned) {
      Dense[BoxIdx] = NextState.size();
      NextState.emplace_back(N, G, NumComp);
    }
    for (int Step = 0; Step < Steps; ++Step) {
      sendControl(FrameType::Heartbeat, Step, nullptr, 0);
      const auto ExchangeT0 = Clock::now();
      for (const HaloSlab &S : Plan.SendPrev)
        for (int C = 0; C < NumComp; ++C)
          sendHalo(Prev, /*ToPrev=*/true, Step, S, C);
      for (const HaloSlab &S : Plan.SendNext)
        for (int C = 0; C < NumComp; ++C)
          sendHalo(Next, /*ToPrev=*/false, Step, S, C);

      // Interior boxes read only owned rows (still at the pre-step state),
      // so their ghost fill + kernel overlap the in-flight exchange; the
      // gather thread only writes adjacent-row boxes the interior
      // footprint never touches.
      Status GatherResult = Status::ok();
      std::thread Interior([&] { computeBoxes(InteriorBoxes); });
      if (Plan.Prev >= 0)
        GatherResult = gatherHalos(Step);
      Interior.join();
      if (!GatherResult)
        fail(std::move(GatherResult), Step);
      Stats.ExchangeNanos +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               ExchangeT0)
              .count();
      if (Plan.Prev >= 0)
        ++Stats.Exchanges;

      computeBoxes(BoundaryBoxes);
      for (int BoxIdx : Owned)
        (*Boxes)[static_cast<std::size_t>(BoxIdx)].copyInteriorFrom(
            NextState[Dense.at(BoxIdx)]);
      SentCache.erase(Step - 1); // keep current + previous step only
      checkpoint(Step);
    }
    // Hold the channels open until the coordinator has consumed the final
    // checkpoint and says so.
    (void)Coord.recv(Opts.TimeoutMs * 8);
    _exit(0);
  }
};

[[noreturn]] void workerMain(Worker &W, bool KillSelf) {
  if (KillSelf)
    _exit(9); // peer:kill — die before the first halo send
  W.Owned.clear();
  for (int Z = W.Part.firstRow(W.Rank); Z < W.Part.endRow(W.Rank); ++Z)
    for (int Idx : boxesInRow(W.Layout, Z))
      W.Owned.push_back(Idx);
  const int First = W.Part.firstRow(W.Rank);
  const int Last = W.Part.endRow(W.Rank) - 1;
  for (int Z = First; Z <= Last; ++Z) {
    const bool Boundary =
        W.Part.Shards > 1 && (Z == First || Z == Last);
    for (int Idx : boxesInRow(W.Layout, Z))
      (Boundary ? W.BoundaryBoxes : W.InteriorBoxes).push_back(Idx);
  }
  W.run();
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

struct Coordinator {
  rt::GridLayout Layout;
  SlabPartition Part;
  ShardOptions Opts;
  int Steps = 0;
  const StepFn *Fn = nullptr;
  std::vector<rt::Box> *Boxes = nullptr;

  std::vector<pid_t> Pids;
  std::vector<Channel> Chans; ///< Parent end per rank.
  std::vector<rt::Box> Staging;
  std::vector<std::pair<int, Frame>> Pending; ///< (rank, future-step frame).

  ShardReport Report;
  int Committed = 0;

  void killWorkers() {
    for (pid_t P : Pids)
      if (P > 0)
        ::kill(P, SIGKILL);
    for (pid_t &P : Pids) {
      if (P > 0) {
        int WStatus = 0;
        while (::waitpid(P, &WStatus, 0) < 0 && errno == EINTR) {
        }
      }
      P = -1;
    }
    for (Channel &C : Chans)
      C.close();
  }

  void applyBoxState(const Frame &F) {
    unpackPlanes(Staging[static_cast<std::size_t>(F.H.BoxIndex)], F.H.Comp,
                 F.H.Z0, F.H.ZCount, F.doubles());
  }

  /// Runs one step's collection: every rank must deliver its checkpoint
  /// chunks and StepDone inside the step deadline, with heartbeats and
  /// frame arrivals counting as liveness. Returns the terminal error on
  /// peer loss / abort / deadline.
  Status collectStep(int Step) {
    obs::Tracer &Tr = obs::Tracer::global();
    const std::int64_t StepT0Ns = Tr.enabled() ? Tr.nowNs() : 0;
    std::vector<bool> Done(static_cast<std::size_t>(Part.Shards), false);
    int DoneCount = 0;

    auto HandleFrame = [&](int Rank, const Frame &F) -> Status {
      switch (F.type()) {
      case FrameType::Heartbeat:
        return Status::ok();
      case FrameType::BoxState:
        if (F.H.Step == Step)
          applyBoxState(F);
        else if (F.H.Step > Step)
          Pending.push_back({Rank, F});
        return Status::ok();
      case FrameType::StepDone: {
        if (F.H.Step != Step) {
          if (F.H.Step > Step)
            Pending.push_back({Rank, F});
          return Status::ok();
        }
        if (F.Payload.size() >= StepDoneInts * sizeof(std::int64_t)) {
          const auto *V =
              reinterpret_cast<const std::int64_t *>(F.Payload.data());
          Report.Stats.Exchanges += V[0];
          Report.Stats.Bytes += V[1];
          Report.Stats.Retries += V[2];
          Report.Stats.Timeouts += V[3];
          Report.Stats.PeersLost += V[4];
          if (Tr.enabled()) {
            obs::TraceSpan Span;
            Span.Kind = obs::SpanKind::Exchange;
            Span.T0 = StepT0Ns;
            Span.T1 = StepT0Ns + V[5];
            Span.A0 = Rank;
            Span.A1 = Step;
            Tr.record(Span);
          }
        }
        if (!Done[static_cast<std::size_t>(Rank)]) {
          Done[static_cast<std::size_t>(Rank)] = true;
          ++DoneCount;
        }
        return Status::ok();
      }
      case FrameType::Abort: {
        const auto Code = static_cast<ErrorCode>(F.H.Comp);
        // The aborting worker never sends its StepDone stats; fold the
        // failure class into the coordinator's counters here.
        if (Code == ErrorCode::ExchangeTimeout)
          ++Report.Stats.Timeouts;
        else if (Code == ErrorCode::PeerLost)
          ++Report.Stats.PeersLost;
        std::string Detail(F.Payload.begin(), F.Payload.end());
        if (Detail.empty())
          Detail = "worker aborted without detail";
        return Status::error(Code == ErrorCode::None ? ErrorCode::PeerLost
                                                     : Code,
                             "rank " + std::to_string(Rank) +
                                 " aborted: " + Detail);
      }
      default:
        return Status::ok();
      }
    };

    for (std::size_t I = 0; I < Pending.size();) {
      if (Pending[I].second.H.Step == Step) {
        if (Status S = HandleFrame(Pending[I].first, Pending[I].second); !S)
          return S;
        Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
      } else {
        ++I;
      }
    }

    const auto T0 = Clock::now();
    const int DeadlineMs =
        std::max(4 * Opts.TimeoutMs, Opts.DelayMs + 2 * Opts.TimeoutMs);
    while (DoneCount < Part.Shards) {
      for (std::size_t R = 0; R < Pids.size(); ++R) {
        if (Pids[R] <= 0 || Done[R])
          continue;
        int WStatus = 0;
        pid_t Reaped = ::waitpid(Pids[R], &WStatus, WNOHANG);
        if (Reaped == Pids[R]) {
          Pids[R] = -1;
          ++Report.Stats.PeersLost;
          return Status::error(ErrorCode::PeerLost,
                               "rank " + std::to_string(R) +
                                   " exited mid-step (status " +
                                   std::to_string(WStatus) + ")");
        }
      }
      if (msSince(T0) > DeadlineMs) {
        ++Report.Stats.Timeouts;
        return Status::error(ErrorCode::ExchangeTimeout,
                             "step " + std::to_string(Step) +
                                 " missed the coordinator deadline (" +
                                 std::to_string(DeadlineMs) + "ms)");
      }
      // A rank that finished this step may race ahead (or, after the last
      // step, exit once its shutdown grace expires) — only the laggards'
      // channels are polled; early frames queue until the next step.
      std::vector<int> Fds;
      Fds.reserve(Chans.size());
      for (std::size_t R = 0; R < Chans.size(); ++R)
        Fds.push_back(Done[R] ? -1 : Chans[R].fd());
      std::vector<std::size_t> Ready = pollReadable(Fds, 50);
      for (std::size_t R : Ready) {
        // Drain everything queued on this channel before polling again.
        for (;;) {
          auto F = Chans[R].recv(0);
          if (!F) {
            if (F.error().code() == ErrorCode::PeerLost) {
              ++Report.Stats.PeersLost;
              return Status::error(ErrorCode::PeerLost,
                                   "rank " + std::to_string(R) +
                                       " channel closed (" +
                                       F.error().message() + ")");
            }
            break; // drained (timeout) or corrupt: next poll decides
          }
          if (Status S = HandleFrame(static_cast<int>(R), *F); !S)
            return S;
        }
      }
    }

    for (std::size_t I = 0; I < Boxes->size(); ++I)
      (*Boxes)[I].copyInteriorFrom(Staging[I]);
    ++Committed;
    if (Tr.enabled()) {
      obs::TraceSpan Span;
      Span.Kind = obs::SpanKind::Shard;
      Span.T0 = StepT0Ns;
      Span.T1 = Tr.nowNs();
      Span.A0 = Step;
      Span.A1 = Part.Shards;
      Tr.record(Span);
      Tr.intern("shard-step"); // keep label table stable for tooling
    }
    return Status::ok();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

ShardOptions ShardOptions::fromEnv(ShardOptions Base) {
  // Positive milliseconds small enough that the derived deadlines (up to
  // 8 * TimeoutMs, DelayMs + 2 * TimeoutMs) fit an int; anything else
  // keeps the caller's value.
  constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
  Base.TimeoutMs = static_cast<int>(
      envInt("LCDFG_SHARD_TIMEOUT_MS", 1, IntMax / 8, Base.TimeoutMs));
  Base.DelayMs = static_cast<int>(
      envInt("LCDFG_SHARD_DELAY_MS", 1, IntMax / 2, Base.DelayMs));
  if (Base.DelayMs < 0)
    Base.DelayMs = 3 * Base.TimeoutMs;
  return Base;
}

Status shard::runSerialReference(std::vector<rt::Box> &Boxes,
                                 const rt::GridLayout &Layout, int Steps,
                                 const StepFn &Fn) {
  if (Status S = rt::validateGhostGrid(Boxes, Layout); !S)
    return S.withContext("serial reference run");
  std::vector<rt::Box> Next;
  Next.reserve(Boxes.size());
  for (const rt::Box &B : Boxes)
    Next.emplace_back(B.size(), B.ghost(), B.numComponents());
  for (int Step = 0; Step < Steps; ++Step) {
    if (Status S = rt::exchangeGhosts(Boxes, Layout, 1); !S)
      return S;
    for (std::size_t I = 0; I < Boxes.size(); ++I)
      Fn(Boxes[I], Next[I]);
    for (std::size_t I = 0; I < Boxes.size(); ++I)
      Boxes[I].copyInteriorFrom(Next[I]);
  }
  return Status::ok();
}

std::string ShardReport::toString() const {
  std::ostringstream OS;
  OS << "shard report: "
     << (Completed ? (Recovered ? "recovered" : "completed") : "failed")
     << " at rung " << FinalRung << "\n";
  for (const exec::RunReport::Descent &D : Descents)
    OS << "  descent from " << D.Rung << " [" << D.Reason
       << "]: " << D.Detail << "\n";
  if (!Completed)
    OS << "  error: " << Error.toString() << "\n";
  OS << "  stats: exchanges=" << Stats.Exchanges << " bytes=" << Stats.Bytes
     << " retries=" << Stats.Retries << " timeouts=" << Stats.Timeouts
     << " peers_lost=" << Stats.PeersLost << "\n";
  return OS.str();
}

std::string ShardReport::toJson() const {
  std::ostringstream OS;
  OS << "{\"completed\":" << (Completed ? "true" : "false")
     << ",\"recovered\":" << (Recovered ? "true" : "false")
     << ",\"final_rung\":\"" << jsonEscape(FinalRung) << "\",\"descents\":[";
  for (std::size_t I = 0; I < Descents.size(); ++I) {
    if (I)
      OS << ",";
    OS << "{\"rung\":\"" << jsonEscape(Descents[I].Rung)
       << "\",\"reason\":\"" << jsonEscape(Descents[I].Reason)
       << "\",\"detail\":\"" << jsonEscape(Descents[I].Detail) << "\"}";
  }
  OS << "],\"stats\":{\"exchanges\":" << Stats.Exchanges
     << ",\"bytes\":" << Stats.Bytes << ",\"retries\":" << Stats.Retries
     << ",\"timeouts\":" << Stats.Timeouts
     << ",\"peers_lost\":" << Stats.PeersLost << "}";
  if (!Completed)
    OS << ",\"error\":" << Error.toJson();
  OS << "}";
  return OS.str();
}

ShardReport shard::runSharded(std::vector<rt::Box> &Boxes,
                              const rt::GridLayout &Layout, int Steps,
                              const StepFn &Fn, const ShardOptions &Opts) {
  const auto WallT0 = Clock::now();
  ShardReport Report;
  auto Finish = [&](ShardReport R) {
    R.Seconds = std::chrono::duration<double>(Clock::now() - WallT0).count();
    obs::Tracer &Tr = obs::Tracer::global();
    Tr.add(obs::Counter::ShardExchanges, R.Stats.Exchanges);
    Tr.add(obs::Counter::ShardBytes, R.Stats.Bytes);
    Tr.add(obs::Counter::ShardRetries, R.Stats.Retries);
    Tr.add(obs::Counter::ShardTimeouts, R.Stats.Timeouts);
    Tr.add(obs::Counter::ShardPeerLost, R.Stats.PeersLost);
    return R;
  };

  const ShardOptions Cfg = ShardOptions::fromEnv(Opts);
  if (Status S = rt::validateGhostGrid(Boxes, Layout); !S) {
    Report.Error = S.withContext("sharded run");
    Report.FinalRung = "sharded-" + std::to_string(Cfg.Shards);
    return Finish(std::move(Report));
  }
  auto Partition = partitionRows(Layout, Cfg.Shards);
  if (!Partition) {
    Report.Error = Partition.takeError().withContext("sharded run");
    Report.FinalRung = "sharded-" + std::to_string(Cfg.Shards);
    return Finish(std::move(Report));
  }

  if (Cfg.Shards == 1) {
    Report.FinalRung = "sharded-1";
    if (Status S = runSerialReference(Boxes, Layout, Steps, Fn); !S) {
      Report.Error = std::move(S);
      return Finish(std::move(Report));
    }
    Report.Completed = true;
    return Finish(std::move(Report));
  }

  const int S = Cfg.Shards;
  const int N = Boxes.front().size();
  const int G = Boxes.front().ghost();
  const int NumComp = Boxes.front().numComponents();

  // peer:kill selects its victim here, before fork: rank order, one
  // occurrence per rank, so peer:kill:<nth> condemns rank nth-1.
  std::vector<bool> KillSelf(static_cast<std::size_t>(S), false);
  for (int R = 0; R < S; ++R)
    if (exec::FaultInjector::global().fire(exec::FaultSite::Peer) ==
        exec::FaultKind::Kill)
      KillSelf[static_cast<std::size_t>(R)] = true;

  // Channel plumbing, created before any fork. CoordPair[r] links the
  // coordinator with rank r; Ring[r] links rank r (its "next" side) with
  // rank (r+1)%S (its "prev" side).
  std::vector<Channel> CoordParent, CoordChild, RingNextEnd, RingPrevEnd;
  for (int R = 0; R < S; ++R) {
    auto CoordPair = Channel::makePair();
    auto RingPair = Channel::makePair();
    if (!CoordPair || !RingPair) {
      Report.Error = (!CoordPair ? CoordPair.takeError()
                                 : RingPair.takeError())
                         .withContext("creating shard channels");
      Report.FinalRung = "sharded-" + std::to_string(S);
      return Finish(std::move(Report));
    }
    CoordParent.push_back(std::move(CoordPair->first));
    CoordChild.push_back(std::move(CoordPair->second));
    RingNextEnd.push_back(std::move(RingPair->first));
    RingPrevEnd.push_back(std::move(RingPair->second));
  }

  Coordinator Coord;
  Coord.Layout = Layout;
  Coord.Part = *Partition;
  Coord.Opts = Cfg;
  Coord.Steps = Steps;
  Coord.Fn = &Fn;
  Coord.Boxes = &Boxes;
  Coord.Pids.assign(static_cast<std::size_t>(S), -1);

  for (int R = 0; R < S; ++R) {
    pid_t Pid = ::fork();
    if (Pid < 0) {
      Report.Error = Status::error(ErrorCode::Internal,
                                   std::string("fork failed: ") +
                                       std::strerror(errno));
      Report.FinalRung = "sharded-" + std::to_string(S);
      Coord.killWorkers();
      return Finish(std::move(Report));
    }
    if (Pid == 0) {
      // Every child inherits the armed fault specs across fork(); left
      // alone, a msg fault would fire symmetrically in every rank (each
      // counts its own sends), which e.g. turns msg:delay into a harmless
      // synchronized stall. Rank 0 is the deterministic victim: the Nth
      // occurrence counts rank 0's halo sends.
      if (R != 0)
        exec::FaultInjector::global().disarm();
      Worker W;
      W.Rank = R;
      W.Layout = Layout;
      W.Part = *Partition;
      W.Plan = buildExchangePlan(Layout, *Partition, R, N, G);
      W.Opts = Cfg;
      W.Steps = Steps;
      W.Fn = &Fn;
      W.Boxes = &Boxes;
      W.N = N;
      W.G = G;
      W.NumComp = NumComp;
      W.Coord = std::move(CoordChild[static_cast<std::size_t>(R)]);
      W.Next = std::move(RingNextEnd[static_cast<std::size_t>(R)]);
      W.Prev = std::move(RingPrevEnd[static_cast<std::size_t>((R - 1 + S) % S)]);
      CoordParent.clear();
      CoordChild.clear();
      RingNextEnd.clear();
      RingPrevEnd.clear();
      workerMain(W, KillSelf[static_cast<std::size_t>(R)]); // never returns
    }
    Coord.Pids[static_cast<std::size_t>(R)] = Pid;
  }
  CoordChild.clear();
  RingNextEnd.clear();
  RingPrevEnd.clear();
  Coord.Chans = std::move(CoordParent);
  Coord.Staging = Boxes;
  Coord.Report.FinalRung = "sharded-" + std::to_string(S);

  Status StepError = Status::ok();
  for (int Step = 0; Step < Steps; ++Step) {
    StepError = Coord.collectStep(Step);
    if (!StepError)
      break;
  }
  Report = std::move(Coord.Report);

  if (StepError) {
    for (Channel &C : Coord.Chans) {
      Frame F;
      F.H.Type = static_cast<std::uint16_t>(FrameType::Shutdown);
      F.H.Rank = CoordinatorRank;
      (void)C.send(std::move(F));
    }
    Coord.killWorkers(); // reap; Shutdown already let them exit cleanly
    Report.Completed = true;
    return Finish(std::move(Report));
  }

  // L009-shard-degraded: the sharded attempt is dead, the committed
  // snapshot is intact (checkpoints only merge on full-step quorum), so
  // finish every remaining step single-process scalar-serial —
  // bit-identical to a never-sharded run.
  Coord.killWorkers();
  Report.Descents.push_back(exec::RunReport::Descent{
      "sharded-" + std::to_string(S), exec::ReasonShardDegraded,
      StepError.toString()});
  if (Status Serial =
          runSerialReference(Boxes, Layout, Steps - Coord.Committed, Fn);
      !Serial) {
    Report.Error = Status::error(ErrorCode::Exhausted,
                                 "serial fallback failed after shard "
                                 "descent: " +
                                     Serial.toString());
    Report.FinalRung = "shard-degraded-serial";
    return Finish(std::move(Report));
  }
  Report.FinalRung = "shard-degraded-serial";
  Report.Completed = true;
  Report.Recovered = true;
  return Finish(std::move(Report));
}
