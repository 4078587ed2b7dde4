//===- tools/lcdfg-serve.cpp - The plan-serving daemon --------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Serves compile+run requests over a newline-delimited JSON protocol
// (docs/SERVING.md), amortizing the compile pipeline behind an LRU plan
// cache and isolating each request's failures behind the degradation
// ladder.
//
//   lcdfg-serve (--unix=PATH | --port=N)
//               [--capacity=N]      compiled plans kept (default 64)
//               [--budget-mb=N]     admission byte budget (default off)
//               [--max-clients=N]   concurrent connections (default 32)
//               [--max-concurrent=N] running requests (default 2x hw)
//               [--heavy-mb=N]      heavy-lane traffic threshold (64)
//               [--max-size=N]      "size" knob cap (default 512)
//               [--idle-ms=N]       frame read deadline (default 10000)
//               [--wedge-ms=N]      admission wait deadline (default 10000)
//               [--no-shutdown]     refuse the {"cmd":"shutdown"} request
//
// On successful startup one "ready" JSON line is printed to stdout (with
// the bound port for --port=0 servers) so harnesses can synchronize; the
// daemon then runs until SIGINT/SIGTERM or a shutdown command, prints its
// final stats line, and exits 0.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

using namespace lcdfg;

namespace {

std::atomic<int> GSignal{0};

void onSignal(int Sig) { GSignal.store(Sig); }

constexpr std::int64_t IntMin = std::numeric_limits<int>::min();
constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
constexpr std::int64_t Int64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t Int64Max = std::numeric_limits<std::int64_t>::max();

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix=PATH | --port=N) [--capacity=N] "
               "[--budget-mb=N] [--max-clients=N] [--max-concurrent=N] "
               "[--heavy-mb=N] [--max-size=N] [--idle-ms=N] [--wedge-ms=N] "
               "[--no-shutdown]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  serve::ServerOptions Opts;
  bool HaveEndpoint = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    std::int64_t N = 0;
    if (std::strncmp(A, "--unix=", 7) == 0) {
      Opts.UnixPath = A + 7;
      HaveEndpoint = true;
    } else if (parseIntFlag(A, "--port=", 0, 65535, N)) {
      Opts.TcpPort = static_cast<int>(N);
      HaveEndpoint = true;
    } else if (parseIntFlag(A, "--capacity=", Int64Min, Int64Max, N)) {
      Opts.CacheCapacity = static_cast<std::size_t>(N > 0 ? N : 1);
    } else if (parseIntFlag(A, "--budget-mb=", 0, Int64Max >> 20, N)) {
      Opts.BudgetBytes = N << 20;
    } else if (parseIntFlag(A, "--max-clients=", IntMin, IntMax, N)) {
      Opts.MaxClients = static_cast<int>(N);
    } else if (parseIntFlag(A, "--max-concurrent=", IntMin, IntMax, N)) {
      Opts.MaxConcurrent = static_cast<int>(N);
    } else if (parseIntFlag(A, "--heavy-mb=", 0, Int64Max >> 20, N)) {
      Opts.HeavyBytes = N << 20;
    } else if (parseIntFlag(A, "--max-size=", Int64Min, Int64Max, N)) {
      Opts.MaxSize = N;
    } else if (parseIntFlag(A, "--idle-ms=", IntMin, IntMax, N)) {
      Opts.IdleTimeoutMs = static_cast<int>(N);
    } else if (parseIntFlag(A, "--wedge-ms=", IntMin, IntMax, N)) {
      Opts.WedgeTimeoutMs = static_cast<int>(N);
    } else if (std::strcmp(A, "--no-shutdown") == 0) {
      Opts.AllowShutdown = false;
    } else {
      return usage(Argv[0]);
    }
  }
  if (!HaveEndpoint)
    return usage(Argv[0]);

  serve::Server Srv(Opts);
  if (support::Status S = Srv.start(); !S) {
    std::fprintf(stderr, "lcdfg-serve: %s\n", S.toString().c_str());
    return 1;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::string Ready = "{" + serve::jsonField("ready", true) + ",";
  if (!Opts.UnixPath.empty())
    Ready += serve::jsonField("unix", std::string_view(Opts.UnixPath));
  else
    Ready += serve::jsonField("port", static_cast<std::int64_t>(Srv.port()));
  Ready += "," +
           serve::jsonField("capacity",
                            static_cast<std::int64_t>(Opts.CacheCapacity)) +
           "}";
  std::printf("%s\n", Ready.c_str());
  std::fflush(stdout);

  while (GSignal.load() == 0 && !Srv.stopRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Srv.stop();

  serve::ServerStats St = Srv.stats();
  std::fprintf(stderr,
               "lcdfg-serve: served %lld requests (%lld admitted, %lld "
               "hits, %lld misses, %lld evictions, %lld errors)\n",
               static_cast<long long>(St.Requests),
               static_cast<long long>(St.Admitted),
               static_cast<long long>(St.Hits),
               static_cast<long long>(St.Misses),
               static_cast<long long>(St.Evictions),
               static_cast<long long>(St.Errors));
  return 0;
}
