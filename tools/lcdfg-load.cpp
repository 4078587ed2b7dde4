//===- tools/lcdfg-load.cpp - Load generator for lcdfg-serve --------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Drives a running lcdfg-serve daemon with N concurrent clients and
// reports throughput and latency percentiles as one flat JSON object —
// the shape tools/bench.sh and tools/bench_compare consume.
//
//   lcdfg-load (--unix=PATH | --port=N)
//              [--clients=N]     concurrent connections (default 1)
//              [--requests=N]    total requests across clients (default 100)
//              [--mix=MODE]      warm | cold | mixed (default warm)
//                                  warm:  one spec, cache hits after the
//                                         first request
//                                  cold:  cache:false on every request
//                                         (fresh compile each time)
//                                  mixed: rotate sizes/scripts so hits and
//                                         misses interleave
//              [--chain=FILE]    pragma source (default examples/chains/fig1.lc)
//              [--script=FILE]   transform script for the scripted variants
//              [--size=N]        base size knob (default 64)
//              [--threads=N]     per-request threads knob (default 1)
//              [--checksum]      request result_fnv on every response
//              [--timeout-ms=N]  per-request deadline (default 30000)
//              [--raw=LINE]      send LINE verbatim, print the response (or
//                                the client-side transport status) and exit
//                                — the CI fault matrix's single-shot probe
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;
using serve::jsonField;

namespace {

struct LoadOptions {
  std::string UnixPath;
  int Port = -1;
  int Clients = 1;
  long Requests = 100;
  std::string Mix = "warm";
  std::string ChainFile = "examples/chains/fig1.lc";
  std::string ScriptFile;
  long Size = 64;
  long Threads = 1;
  bool Checksum = false;
  int TimeoutMs = 30000;
  std::string Raw;
};

constexpr std::int64_t IntMin = std::numeric_limits<int>::min();
constexpr std::int64_t IntMax = std::numeric_limits<int>::max();
constexpr std::int64_t LongMin = std::numeric_limits<long>::min();
constexpr std::int64_t LongMax = std::numeric_limits<long>::max();

bool parseStrArg(const char *Arg, const char *Prefix, std::string &Out) {
  std::size_t Len = std::strlen(Prefix);
  if (std::strncmp(Arg, Prefix, Len) != 0)
    return false;
  Out = Arg + Len;
  return true;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix=PATH | --port=N) [--clients=N] "
               "[--requests=N] [--mix=warm|cold|mixed] [--chain=FILE] "
               "[--script=FILE] [--size=N] [--threads=N] [--checksum] "
               "[--timeout-ms=N] [--raw=LINE]\n",
               Argv0);
  return 2;
}

support::Expected<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return support::Status::error(support::ErrorCode::Internal,
                                  "cannot open " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

support::Expected<serve::Client> connect(const LoadOptions &Opts) {
  if (!Opts.UnixPath.empty())
    return serve::Client::connectUnix(Opts.UnixPath);
  return serve::Client::connectTcp("127.0.0.1", Opts.Port);
}

/// The request line for global request number \p I under the mix policy.
std::string requestLine(const LoadOptions &Opts, const std::string &Chain,
                        const std::string &Script, long I) {
  long Size = Opts.Size;
  bool WithScript = !Script.empty();
  bool Cache = true;
  if (Opts.Mix == "cold") {
    Cache = false;
  } else if (Opts.Mix == "mixed") {
    // Four sizes times script on/off: eight distinct cache keys cycling,
    // so a warm cache still sees a steady trickle of new work.
    static const long Steps[] = {0, 1, 2, 3};
    Size = Opts.Size + 8 * Steps[I % 4];
    WithScript = WithScript && (I % 2 == 0);
  }
  std::string Line = "{" + jsonField("id", I) + "," +
                     jsonField("chain", std::string_view(Chain)) + "," +
                     jsonField("size", static_cast<std::int64_t>(Size)) +
                     "," +
                     jsonField("threads",
                               static_cast<std::int64_t>(Opts.Threads));
  if (WithScript)
    Line += "," + jsonField("script", std::string_view(Script));
  if (!Cache)
    Line += "," + jsonField("cache", false);
  if (Opts.Checksum)
    Line += "," + jsonField("checksum", true);
  Line += "}";
  return Line;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

int runRaw(const LoadOptions &Opts) {
  support::Expected<serve::Client> C = connect(Opts);
  if (!C) {
    std::fprintf(stderr, "lcdfg-load: %s\n", C.error().toString().c_str());
    return 1;
  }
  if (support::Status S = C->sendLine(Opts.Raw); !S) {
    std::printf("{\"ok\":false,\"status\":%s}\n", S.toJson().c_str());
    return 0;
  }
  support::Expected<std::string> Resp = C->recvLine(Opts.TimeoutMs);
  if (!Resp) {
    // The transport-level verdict (E018 drop, E019 stall, E020 garbage)
    // printed in the same shape as a server response, so the fault matrix
    // greps one stream for either side's E-code.
    std::printf("{\"ok\":false,\"status\":%s}\n",
                Resp.error().toJson().c_str());
    return 0;
  }
  std::printf("%s\n", Resp->c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  LoadOptions Opts;
  bool HaveEndpoint = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    std::int64_t N = 0;
    if (parseStrArg(A, "--unix=", Opts.UnixPath)) {
      HaveEndpoint = true;
    } else if (parseIntFlag(A, "--port=", 0, 65535, N)) {
      Opts.Port = static_cast<int>(N);
      HaveEndpoint = true;
    } else if (parseIntFlag(A, "--clients=", IntMin, IntMax, N)) {
      Opts.Clients = static_cast<int>(N > 0 ? N : 1);
    } else if (parseIntFlag(A, "--requests=", LongMin, LongMax, N)) {
      Opts.Requests = N > 0 ? N : 1;
    } else if (parseStrArg(A, "--mix=", Opts.Mix)) {
    } else if (parseStrArg(A, "--chain=", Opts.ChainFile)) {
    } else if (parseStrArg(A, "--script=", Opts.ScriptFile)) {
    } else if (parseIntFlag(A, "--size=", LongMin, LongMax, N)) {
      Opts.Size = N;
    } else if (parseIntFlag(A, "--threads=", LongMin, LongMax, N)) {
      Opts.Threads = N;
    } else if (std::strcmp(A, "--checksum") == 0) {
      Opts.Checksum = true;
    } else if (parseIntFlag(A, "--timeout-ms=", IntMin, IntMax, N)) {
      Opts.TimeoutMs = static_cast<int>(N);
    } else if (parseStrArg(A, "--raw=", Opts.Raw)) {
    } else {
      return usage(Argv[0]);
    }
  }
  if (!HaveEndpoint)
    return usage(Argv[0]);
  if (Opts.Mix != "warm" && Opts.Mix != "cold" && Opts.Mix != "mixed")
    return usage(Argv[0]);

  if (!Opts.Raw.empty())
    return runRaw(Opts);

  support::Expected<std::string> Chain = readFile(Opts.ChainFile);
  if (!Chain) {
    std::fprintf(stderr, "lcdfg-load: %s\n",
                 Chain.error().toString().c_str());
    return 1;
  }
  std::string Script;
  if (!Opts.ScriptFile.empty()) {
    support::Expected<std::string> S = readFile(Opts.ScriptFile);
    if (!S) {
      std::fprintf(stderr, "lcdfg-load: %s\n", S.error().toString().c_str());
      return 1;
    }
    Script = *S;
  }

  std::atomic<long> Next{0};
  std::atomic<long> Completed{0};
  std::atomic<long> Errors{0};
  std::vector<std::vector<double>> Latencies(
      static_cast<std::size_t>(Opts.Clients));

  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();

  std::vector<std::thread> Threads;
  for (int C = 0; C < Opts.Clients; ++C) {
    Threads.emplace_back([&, C] {
      support::Expected<serve::Client> Conn = connect(Opts);
      if (!Conn) {
        Errors.fetch_add(1);
        return;
      }
      while (true) {
        long I = Next.fetch_add(1);
        if (I >= Opts.Requests)
          break;
        std::string Line = requestLine(Opts, *Chain, Script, I);
        Clock::time_point R0 = Clock::now();
        support::Expected<serve::JsonValue> Resp =
            Conn->request(Line, Opts.TimeoutMs);
        double Sec =
            std::chrono::duration<double>(Clock::now() - R0).count();
        if (!Resp || !Resp->isObject()) {
          Errors.fetch_add(1);
          // Reconnect: a dead connection fails every later request.
          Conn = connect(Opts);
          if (!Conn)
            break;
          continue;
        }
        const serve::JsonValue *Ok = Resp->find("ok");
        if (!Ok || !Ok->asBool()) {
          Errors.fetch_add(1);
          continue;
        }
        Latencies[static_cast<std::size_t>(C)].push_back(Sec);
        Completed.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = std::chrono::duration<double>(Clock::now() - T0).count();

  std::vector<double> All;
  for (const std::vector<double> &L : Latencies)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());
  double Mean = 0.0;
  for (double S : All)
    Mean += S;
  if (!All.empty())
    Mean /= static_cast<double>(All.size());

  // Final cache counters from the server itself.
  std::int64_t Hits = 0, Misses = 0;
  if (support::Expected<serve::Client> C = connect(Opts)) {
    if (support::Expected<serve::JsonValue> R =
            C->request("{\"cmd\":\"stats\"}", Opts.TimeoutMs)) {
      if (const serve::JsonValue *St = R->find("stats")) {
        Hits = St->find("hits") ? St->find("hits")->asInt() : 0;
        Misses = St->find("misses") ? St->find("misses")->asInt() : 0;
      }
    }
  }
  double HitRate =
      Hits + Misses > 0
          ? static_cast<double>(Hits) / static_cast<double>(Hits + Misses)
          : 0.0;

  std::string Out =
      "{" + jsonField("clients", static_cast<std::int64_t>(Opts.Clients)) +
      "," + jsonField("requests", static_cast<std::int64_t>(Opts.Requests)) +
      "," + jsonField("completed", static_cast<std::int64_t>(Completed.load())) +
      "," + jsonField("errors", static_cast<std::int64_t>(Errors.load())) +
      "," + jsonField("mix", std::string_view(Opts.Mix)) + "," +
      jsonField("elapsed", Elapsed) + "," +
      jsonField("rps", Elapsed > 0.0
                           ? static_cast<double>(Completed.load()) / Elapsed
                           : 0.0) +
      "," + jsonField("p50", percentile(All, 0.50)) + "," +
      jsonField("p99", percentile(All, 0.99)) + "," +
      jsonField("mean", Mean) + "," + jsonField("hits", Hits) + "," +
      jsonField("misses", Misses) + "," + jsonField("hit_rate", HitRate) +
      "}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
