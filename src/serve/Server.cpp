//===- serve/Server.cpp ---------------------------------------------------===//

#include "serve/Server.h"

#include "exec/FaultInjector.h"
#include "exec/Recovery.h"
#include "obs/Trace.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lcdfg;
using namespace lcdfg::serve;
using support::ErrorCode;
using support::jsonField;
using support::jsonNested;
using support::jsonObject;
using support::JsonValue;
using support::parseJson;
using support::Status;

namespace {

constexpr int PollSliceMs = 200;

/// send() everything or report E018 (the peer is gone).
Status sendAll(int Fd, const char *Data, std::size_t Len) {
  std::size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::send(Fd, Data + Off, Len - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrorCode::PeerLost,
                           std::string("send failed: ") + std::strerror(errno));
    }
    Off += static_cast<std::size_t>(N);
  }
  return Status::ok();
}

/// FNV-64 over the persistent spaces of \p Plan in space order — the
/// warm-vs-cold bit-identity witness.
std::string resultChecksum(const exec::ExecutionPlan &Plan,
                           const storage::ConcreteStorage &Store) {
  std::uint64_t H = support::FnvOffsetBasis;
  for (std::size_t S = 0; S < Plan.NumSpaces && S < Store.numSpaces(); ++S) {
    if (S < Plan.SpacePersistent.size() && !Plan.SpacePersistent[S])
      continue;
    const std::vector<double> &Buf = Store.space(S);
    H = support::fnv1aBytes(Buf.data(), Buf.size() * sizeof(double), H);
  }
  char Hex[19];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return Hex;
}

std::string statusResponse(const Status &S, const std::string &IdField) {
  return jsonObject(
      {jsonField("ok", false), IdField, jsonNested("status", S.toJson())});
}

/// Pre-rendered "id":... echo fragment ("" when the request carried none).
std::string idFieldOf(const JsonValue &Req) {
  const JsonValue *Id = Req.find("id");
  if (!Id)
    return "";
  if (Id->isString())
    return jsonField("id", Id->Str);
  if (Id->isNumber())
    return jsonField("id", Id->asInt());
  return "";
}

} // namespace

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Cache(Opts.CacheCapacity) {
  if (Opts.MaxConcurrent <= 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Opts.MaxConcurrent = static_cast<int>(HW ? 2 * HW : 8);
  }
}

Server::~Server() { stop(); }

Status Server::start() {
  if (Running.load())
    return Status::error(ErrorCode::Internal, "server already started");

  if (::pipe(WakePipe) != 0)
    return Status::error(ErrorCode::Internal,
                         std::string("pipe failed: ") + std::strerror(errno));

  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path))
      return Status::error(ErrorCode::Internal,
                           "unix socket path too long: " + Opts.UnixPath);
    std::memcpy(Addr.sun_path, Opts.UnixPath.c_str(),
                Opts.UnixPath.size() + 1);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ListenFd < 0)
      return Status::error(ErrorCode::Internal,
                           std::string("socket failed: ") +
                               std::strerror(errno));
    ::unlink(Opts.UnixPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0)
      return Status::error(ErrorCode::Internal,
                           "bind " + Opts.UnixPath + " failed: " +
                               std::strerror(errno));
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ListenFd < 0)
      return Status::error(ErrorCode::Internal,
                           std::string("socket failed: ") +
                               std::strerror(errno));
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<std::uint16_t>(Opts.TcpPort));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0)
      return Status::error(ErrorCode::Internal,
                           "bind 127.0.0.1:" + std::to_string(Opts.TcpPort) +
                               " failed: " + std::strerror(errno));
    socklen_t Len = sizeof(Addr);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) ==
        0)
      BoundPort = static_cast<int>(ntohs(Addr.sin_port));
  }

  if (::listen(ListenFd, 64) != 0)
    return Status::error(ErrorCode::Internal,
                         std::string("listen failed: ") +
                             std::strerror(errno));

  Running.store(true);
  Stopping.store(false);
  Acceptor = std::thread([this] { acceptLoop(); });
  return Status::ok();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> Lock(StopMu);
    Stopping.store(true);
  }
  StopCv.notify_all();
  std::call_once(StopOnce, [this] {
    if (WakePipe[1] >= 0) {
      char B = 1;
      (void)!::write(WakePipe[1], &B, 1);
    }
    if (Acceptor.joinable())
      Acceptor.join();
    reapConnections(true);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    if (!Opts.UnixPath.empty())
      ::unlink(Opts.UnixPath.c_str());
    for (int &Fd : WakePipe)
      if (Fd >= 0) {
        ::close(Fd);
        Fd = -1;
      }
    Running.store(false);
  });
}

void Server::wait() {
  std::unique_lock<std::mutex> Lock(StopMu);
  StopCv.wait(Lock, [this] { return Stopping.load() || !Running.load(); });
}

ServerStats Server::stats() const {
  ServerStats S;
  S.Connections = CConnections.load();
  S.Active = CActive.load();
  S.Requests = CRequests.load();
  S.Admitted = CAdmitted.load();
  CacheStats CS = Cache.stats();
  S.Hits = CS.Hits;
  S.Misses = CS.Misses;
  S.Evictions = CS.Evictions;
  S.Entries = CS.Entries;
  S.Errors = CErrors.load();
  S.ProtocolErrors = CProtocolErrors.load();
  S.Rejected = CRejected.load();
  return S;
}

void Server::reapConnections(bool Final) {
  std::lock_guard<std::mutex> Lock(ConnMu);
  auto It = Conns.begin();
  while (It != Conns.end()) {
    Conn &C = **It;
    if (Final || C.Done.load()) {
      if (C.Th.joinable())
        C.Th.join();
      It = Conns.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::acceptLoop() {
  while (!Stopping.load()) {
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
    int R = ::poll(P, 2, PollSliceMs);
    if (Stopping.load())
      break;
    if (R <= 0 || !(P[0].revents & POLLIN)) {
      reapConnections(false);
      continue;
    }
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    CConnections.fetch_add(1);
    reapConnections(false);

    if (CActive.load() >= Opts.MaxClients) {
      // Over the connection cap: answer with a structured rejection so
      // the client can back off, then close.
      std::string Resp = statusResponse(
          Status::error(ErrorCode::MemBudgetInfeasible,
                        "connection limit reached (" +
                            std::to_string(Opts.MaxClients) + " clients)")
              .withSubcode("serve-overload"),
          "");
      CErrors.fetch_add(1);
      CRejected.fetch_add(1);
      Resp += "\n";
      (void)sendAll(Fd, Resp.data(), Resp.size());
      ::close(Fd);
      continue;
    }

    CActive.fetch_add(1);
    auto C = std::make_unique<Conn>();
    Conn *CP = C.get();
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      Conns.push_back(std::move(C));
    }
    CP->Th = std::thread([this, Fd, CP] {
      serveConnection(Fd);
      CActive.fetch_sub(1);
      CP->Done.store(true);
    });
  }
}

void Server::serveConnection(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  std::string Buf;
  using Clock = std::chrono::steady_clock;

  while (!Stopping.load()) {
    // Read one frame, slicing the poll so a stop() request is honored
    // promptly and a slow-loris partial line hits the idle deadline.
    Clock::time_point Deadline =
        Clock::now() + std::chrono::milliseconds(Opts.IdleTimeoutMs);
    std::string Line;
    bool HaveLine = false;
    while (!Stopping.load()) {
      std::size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        Line.assign(Buf, 0, NL);
        Buf.erase(0, NL + 1);
        HaveLine = true;
        break;
      }
      if (Buf.size() > Opts.MaxLineBytes) {
        // Oversized frame: respond E020 and drop the connection — the
        // rest of the frame is unframed garbage we must not reparse.
        CRequests.fetch_add(1);
        CErrors.fetch_add(1);
        CProtocolErrors.fetch_add(1);
        obs::Tracer::global().add(obs::Counter::ServeRequests, 1);
        obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
        std::string Resp = statusResponse(
            Status::error(ErrorCode::Protocol,
                          "request frame exceeds " +
                              std::to_string(Opts.MaxLineBytes) + " bytes"),
            "");
        (void)writeResponse(Fd, Resp);
        ::close(Fd);
        return;
      }
      if (Clock::now() >= Deadline) {
        // Idle (or mid-frame stalled) connection: close it.
        ::close(Fd);
        return;
      }
      pollfd P = {Fd, POLLIN, 0};
      int R = ::poll(&P, 1, PollSliceMs);
      if (R < 0 && errno != EINTR) {
        ::close(Fd);
        return;
      }
      if (R <= 0 || !(P.revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N == 0 || (N < 0 && errno != EINTR)) {
        ::close(Fd); // EOF or reset: the client went away.
        return;
      }
      if (N > 0) {
        Buf.append(Chunk, static_cast<std::size_t>(N));
        Deadline =
            Clock::now() + std::chrono::milliseconds(Opts.IdleTimeoutMs);
      }
    }
    if (!HaveLine)
      break; // Stopping.
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue; // Tolerate blank keep-alive lines.

    bool Shutdown = false;
    std::string Resp = processLine(Line, &Shutdown);
    bool Alive = writeResponse(Fd, Resp);
    if (Shutdown) {
      {
        std::lock_guard<std::mutex> Lock(StopMu);
        Stopping.store(true);
      }
      StopCv.notify_all();
      if (WakePipe[1] >= 0) {
        char B = 1;
        (void)!::write(WakePipe[1], &B, 1);
      }
      break;
    }
    if (!Alive)
      break;
  }
  ::close(Fd);
}

bool Server::writeResponse(int Fd, const std::string &Line) {
  std::string Out = Line + "\n";
  switch (exec::FaultInjector::global().fire(exec::FaultSite::Serve)) {
  case exec::FaultKind::Drop:
    // Close before any response byte: the client observes EOF (E018).
    return false;
  case exec::FaultKind::Truncate: {
    // Half a response line, then gone: the client gets an unparseable
    // partial frame (E020 on its side).
    (void)sendAll(Fd, Out.data(), Out.size() / 2);
    return false;
  }
  case exec::FaultKind::Delay: {
    // Stall mid-write past the client's deadline (E019 for impatient
    // clients; absorbed when the stall is shorter than their budget).
    std::size_t Half = Out.size() / 2;
    if (!sendAll(Fd, Out.data(), Half))
      return false;
    const std::int64_t DelayMs = envInt(
        "LCDFG_SERVE_DELAY_MS", 0, std::numeric_limits<int>::max(), 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    return bool(sendAll(Fd, Out.data() + Half, Out.size() - Half));
  }
  default:
    return bool(sendAll(Fd, Out.data(), Out.size()));
  }
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

std::string Server::processLine(std::string_view Line, bool *Shutdown) {
  if (Shutdown)
    *Shutdown = false;
  CRequests.fetch_add(1);
  obs::Tracer::global().add(obs::Counter::ServeRequests, 1);

  support::Expected<JsonValue> Parsed = parseJson(Line);
  if (!Parsed) {
    CErrors.fetch_add(1);
    CProtocolErrors.fetch_add(1);
    obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
    return statusResponse(Parsed.takeError(), "");
  }
  const JsonValue &Req = *Parsed;
  if (!Req.isObject()) {
    CErrors.fetch_add(1);
    CProtocolErrors.fetch_add(1);
    obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
    return statusResponse(Status::error(ErrorCode::Protocol,
                                        "request must be a JSON object"),
                          idFieldOf(Req));
  }
  if (Req.find("cmd"))
    return handleCommand(Req, Shutdown);
  return handleRun(Req);
}

std::string Server::handleCommand(const JsonValue &Req, bool *Shutdown) {
  std::string IdField = idFieldOf(Req);
  const JsonValue *Cmd = Req.find("cmd");
  std::string Name = Cmd->asString();

  auto Reject = [&](std::string Why) {
    CErrors.fetch_add(1);
    CProtocolErrors.fetch_add(1);
    obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
    return statusResponse(
        Status::error(ErrorCode::Protocol, std::move(Why)), IdField);
  };
  if (!Cmd->isString())
    return Reject("\"cmd\" must be a string");

  if (Name == "ping")
    return jsonObject(
        {jsonField("ok", true), IdField, jsonField("cmd", "ping")});

  if (Name == "stats") {
    ServerStats S = stats();
    std::string Stats = jsonObject(
        {jsonField("connections", S.Connections), jsonField("active", S.Active),
         jsonField("requests", S.Requests), jsonField("admitted", S.Admitted),
         jsonField("hits", S.Hits), jsonField("misses", S.Misses),
         jsonField("evictions", S.Evictions), jsonField("entries", S.Entries),
         jsonField("capacity", Cache.capacity()), jsonField("errors", S.Errors),
         jsonField("protocol_errors", S.ProtocolErrors),
         jsonField("rejected", S.Rejected)});
    return jsonObject(
        {jsonField("ok", true), IdField, jsonNested("stats", Stats)});
  }

  if (Name == "shutdown") {
    if (!Opts.AllowShutdown)
      return Reject("shutdown is disabled on this server");
    if (Shutdown)
      *Shutdown = true;
    return jsonObject(
        {jsonField("ok", true), IdField, jsonField("cmd", "shutdown")});
  }

  return Reject("unknown command: " + Name);
}

Status Server::decodeSpec(const JsonValue &Req, RequestSpec &Spec) const {
  auto Bad = [](std::string Why) {
    return Status::error(ErrorCode::Protocol, std::move(Why));
  };

  const JsonValue *Chain = Req.find("chain");
  if (!Chain || !Chain->isString())
    return Bad("missing or non-string \"chain\"");
  Spec.Chain = Chain->Str;

  if (const JsonValue *V = Req.find("script")) {
    if (!V->isString())
      return Bad("\"script\" must be a string");
    Spec.Script = V->Str;
  }
  if (const JsonValue *V = Req.find("size")) {
    if (!V->isNumber())
      return Bad("\"size\" must be a number");
    Spec.Size = V->asInt();
    if (Spec.Size < 1 || Spec.Size > Opts.MaxSize)
      return Bad("\"size\" out of range [1, " + std::to_string(Opts.MaxSize) +
                 "]");
  }
  if (const JsonValue *V = Req.find("widen")) {
    if (!V->isNumber())
      return Bad("\"widen\" must be a number");
    std::int64_t W = V->asInt();
    if (W < 1 || W > 64)
      return Bad("\"widen\" out of range [1, 64]");
    Spec.Widen = static_cast<unsigned>(W);
  }
  if (const JsonValue *V = Req.find("threads")) {
    if (!V->isNumber())
      return Bad("\"threads\" must be a number");
    std::int64_t T = V->asInt();
    if (T < 1 || T > 256)
      return Bad("\"threads\" out of range [1, 256]");
    Spec.Threads = static_cast<int>(T);
  }
  if (const JsonValue *V = Req.find("kernels")) {
    if (!V->isString())
      return Bad("\"kernels\" must be a string");
    if (V->Str == "interp")
      Spec.Kernels = exec::KernelMode::Interp;
    else if (V->Str == "jit")
      Spec.Kernels = exec::KernelMode::Jit;
    else
      return Bad("unknown kernel mode: " + V->Str);
  }
  if (const JsonValue *V = Req.find("batched")) {
    if (!V->isBool())
      return Bad("\"batched\" must be a boolean");
    Spec.Batched = V->B;
  }
  if (const JsonValue *V = Req.find("harden")) {
    if (!V->isBool())
      return Bad("\"harden\" must be a boolean");
    Spec.Harden = V->B;
  }
  if (const JsonValue *V = Req.find("mem_budget")) {
    if (!V->isNumber())
      return Bad("\"mem_budget\" must be a number");
    Spec.MemBudget = V->asInt();
    if (Spec.MemBudget < 0)
      return Bad("\"mem_budget\" must be >= 0");
  }
  if (const JsonValue *V = Req.find("cache")) {
    if (!V->isBool())
      return Bad("\"cache\" must be a boolean");
    Spec.Bypass = !V->B;
  }
  if (const JsonValue *V = Req.find("checksum")) {
    if (!V->isBool())
      return Bad("\"checksum\" must be a boolean");
    Spec.Checksum = V->B;
  }
  return Status::ok();
}

Status Server::admit(std::int64_t Bytes, bool Heavy, double *WaitSeconds) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();

  if (Opts.BudgetBytes > 0 && Bytes > Opts.BudgetBytes)
    return Status::error(ErrorCode::MemBudgetInfeasible,
                         "request needs " + std::to_string(Bytes) +
                             " bytes against a " +
                             std::to_string(Opts.BudgetBytes) +
                             "-byte server budget")
        .withSubcode("serve-admission");

  std::unique_lock<std::mutex> Lock(AdmitMu);
  auto Fits = [&] {
    return RunningReqs < Opts.MaxConcurrent &&
           (Opts.BudgetBytes <= 0 || LiveBytes + Bytes <= Opts.BudgetBytes) &&
           (!Heavy || HeavyReqs == 0);
  };
  if (!AdmitCv.wait_for(Lock, std::chrono::milliseconds(Opts.WedgeTimeoutMs),
                        Fits))
    return Status::error(ErrorCode::MemBudgetInfeasible,
                         "admission wedged for " +
                             std::to_string(Opts.WedgeTimeoutMs) +
                             " ms waiting on " + std::to_string(Bytes) +
                             " bytes")
        .withSubcode("serve-wedged");
  LiveBytes += Bytes;
  ++RunningReqs;
  if (Heavy)
    ++HeavyReqs;
  if (WaitSeconds)
    *WaitSeconds = std::chrono::duration<double>(Clock::now() - T0).count();
  return Status::ok();
}

void Server::release(std::int64_t Bytes, bool Heavy) {
  {
    std::lock_guard<std::mutex> Lock(AdmitMu);
    LiveBytes -= Bytes;
    --RunningReqs;
    if (Heavy)
      --HeavyReqs;
  }
  AdmitCv.notify_all();
}

std::string Server::handleRun(const JsonValue &Req) {
  std::string IdField = idFieldOf(Req);
  auto Fail = [&](const Status &S, bool IsProtocol) {
    CErrors.fetch_add(1);
    if (IsProtocol)
      CProtocolErrors.fetch_add(1);
    obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
    return statusResponse(S, IdField);
  };

  RequestSpec Spec;
  if (Status S = decodeSpec(Req, Spec); !S)
    return Fail(S, true);

  // Consult the cache exactly once per admitted request: the soak test's
  // hits + misses == admitted invariant hangs off this ordering.
  CAdmitted.fetch_add(1);
  bool Hit = false;
  support::Expected<CompiledPlanPtr> Compiled = Cache.get(Spec, &Hit);
  if (!Compiled)
    return Fail(Compiled.takeError(), false);
  CompiledPlanPtr CP = *Compiled;

  if (!CP->VerifyClean) {
    // The one-time strict gate flagged this configuration; rerunning the
    // verifier per request could only repeat the verdict.
    std::string Detail = CP->VerifyDetail;
    if (Detail.size() > 400)
      Detail.resize(400);
    return Fail(Status::error(ErrorCode::VerifierRejected,
                              "static verification rejected the plan: " +
                                  Detail),
                false);
  }

  bool Heavy = CP->TrafficBytes > Opts.HeavyBytes;
  double WaitSeconds = 0.0;
  if (Status S = admit(CP->AdmitBytes, Heavy, &WaitSeconds); !S) {
    CRejected.fetch_add(1);
    return Fail(S, false);
  }

  exec::RunReport RR;
  std::string Fnv;
  {
    storage::ConcreteStorage Store(CP->SPlan, CP->Env);
    storage::ConcreteStorage FbStore(CP->FbSPlan, CP->Env);
    CP->seedStore(Store);
    CP->seedStore(FbStore);

    exec::RecoverOptions ROpts;
    ROpts.Run.Threads = Spec.Threads;
    ROpts.Run.Batched = Spec.Batched;
    ROpts.Run.Harden = Spec.Harden;
    ROpts.Run.MemBudget = Spec.MemBudget;
    ROpts.Run.Kernels = Spec.Kernels;
    // Strict verification already ran once at compile time; per-request
    // runs skip the gate (that is most of the warm-path speedup).
    ROpts.StrictVerify = false;
    ROpts.Fallback = &CP->FbPlan;
    ROpts.FallbackStore = &FbStore;

    RR = exec::runWithRecovery(CP->Plan, CP->Kernels, Store, ROpts);

    if (Spec.Checksum && RR.Completed)
      Fnv = startsWith(RR.FinalRung, "fallback-")
                ? resultChecksum(CP->FbPlan, FbStore)
                : resultChecksum(CP->Plan, Store);
  }
  release(CP->AdmitBytes, Heavy);

  std::int64_t Points = 0, RawReads = 0, Tasks = 0;
  for (const exec::PlanStats::WorkerStat &W : RR.Stats.Workers) {
    Points += W.Points;
    RawReads += W.RawReads;
    Tasks += W.Tasks;
  }

  if (!RR.Completed) {
    CErrors.fetch_add(1);
    obs::Tracer::global().add(obs::Counter::ServeErrors, 1);
  }
  std::string Metrics = jsonObject(
      {jsonField("seconds", RR.Stats.Seconds),
       jsonField("compile_seconds", Hit ? 0.0 : CP->CompileSeconds),
       jsonField("wait_seconds", WaitSeconds), jsonField("points", Points),
       jsonField("raw_reads", RawReads), jsonField("tasks", Tasks),
       jsonField("threads_used", RR.Stats.ThreadsUsed)});
  std::string Cost = jsonObject(
      {jsonField("sr", CP->Cost.TotalRead.toString()),
       jsonField("sc", CP->Cost.MaxStreams),
       jsonField("store_bytes", CP->StoreBytes),
       jsonField("admit_bytes", CP->AdmitBytes),
       jsonField("traffic_bytes", CP->TrafficBytes),
       jsonField("high_water", CP->SerialHighWater),
       jsonField("heavy", Heavy)});
  return jsonObject(
      {jsonField("ok", RR.Completed), IdField,
       jsonField("cache", Hit ? "hit" : "miss"),
       RR.Completed ? "" : jsonNested("status", RR.Error.toJson()),
       jsonNested("report", RR.toJson()), jsonNested("metrics", Metrics),
       jsonNested("cost", Cost),
       Fnv.empty() ? "" : jsonField("result_fnv", Fnv)});
}

//===----------------------------------------------------------------------===//
// Client
//===----------------------------------------------------------------------===//

Client::Client(Client &&O) noexcept : Fd(O.Fd), Buf(std::move(O.Buf)) {
  O.Fd = -1;
}

Client &Client::operator=(Client &&O) noexcept {
  if (this != &O) {
    closeNow();
    Fd = O.Fd;
    Buf = std::move(O.Buf);
    O.Fd = -1;
  }
  return *this;
}

Client::~Client() { closeNow(); }

void Client::closeNow() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Buf.clear();
}

support::Expected<Client> Client::connectUnix(const std::string &Path,
                                              int TimeoutMs) {
  (void)TimeoutMs; // Unix connects are local and immediate.
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status::error(ErrorCode::Internal,
                         "unix socket path too long: " + Path);
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Status::error(ErrorCode::Internal,
                         std::string("socket failed: ") +
                             std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status S = Status::error(ErrorCode::PeerLost,
                             "connect " + Path + " failed: " +
                                 std::strerror(errno));
    ::close(Fd);
    return S;
  }
  Client C;
  C.Fd = Fd;
  return support::Expected<Client>(std::move(C));
}

support::Expected<Client> Client::connectTcp(const std::string &Host, int Port,
                                             int TimeoutMs) {
  (void)TimeoutMs; // Loopback connects are immediate.
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return Status::error(ErrorCode::Internal, "bad address: " + Host);
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Status::error(ErrorCode::Internal,
                         std::string("socket failed: ") +
                             std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Status S = Status::error(ErrorCode::PeerLost,
                             "connect " + Host + ":" + std::to_string(Port) +
                                 " failed: " + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  Client C;
  C.Fd = Fd;
  return support::Expected<Client>(std::move(C));
}

Status Client::sendLine(std::string_view Line) {
  if (Fd < 0)
    return Status::error(ErrorCode::PeerLost, "client not connected");
  std::string Out(Line);
  Out += "\n";
  return sendAll(Fd, Out.data(), Out.size());
}

Status Client::sendRaw(std::string_view Bytes) {
  if (Fd < 0)
    return Status::error(ErrorCode::PeerLost, "client not connected");
  return sendAll(Fd, Bytes.data(), Bytes.size());
}

support::Expected<std::string> Client::recvLine(int TimeoutMs,
                                                std::size_t MaxBytes) {
  if (Fd < 0)
    return Status::error(ErrorCode::PeerLost, "client not connected");
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (true) {
    std::size_t NL = Buf.find('\n');
    if (NL != std::string::npos) {
      std::string Line = Buf.substr(0, NL);
      Buf.erase(0, NL + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      return Line;
    }
    if (Buf.size() > MaxBytes)
      return Status::error(ErrorCode::Protocol,
                           "response frame exceeds " +
                               std::to_string(MaxBytes) + " bytes");
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - Clock::now())
                    .count();
    if (Left <= 0)
      return Status::error(ErrorCode::ExchangeTimeout,
                           "no response line within " +
                               std::to_string(TimeoutMs) + " ms")
          .withSubcode("timeout");
    pollfd P = {Fd, POLLIN, 0};
    int R = ::poll(&P, 1, static_cast<int>(std::min<long long>(Left, 200)));
    if (R < 0 && errno != EINTR)
      return Status::error(ErrorCode::PeerLost,
                           std::string("poll failed: ") +
                               std::strerror(errno));
    if (R <= 0 || !(P.revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    char Chunk[4096];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N == 0) {
      // EOF mid-frame is a truncated response (E020); EOF with nothing
      // buffered means the peer dropped us before responding (E018).
      if (!Buf.empty())
        return Status::error(ErrorCode::Protocol,
                             "connection closed mid-frame after " +
                                 std::to_string(Buf.size()) + " bytes");
      return Status::error(ErrorCode::PeerLost,
                           "connection closed before a full response line");
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrorCode::PeerLost,
                           std::string("recv failed: ") +
                               std::strerror(errno));
    }
    Buf.append(Chunk, static_cast<std::size_t>(N));
  }
}

support::Expected<JsonValue> Client::request(std::string_view Line,
                                             int TimeoutMs) {
  if (Status S = sendLine(Line); !S)
    return S;
  support::Expected<std::string> Resp = recvLine(TimeoutMs);
  if (!Resp)
    return Resp.takeError();
  return parseJson(*Resp);
}
