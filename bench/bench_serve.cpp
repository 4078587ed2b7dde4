//===- bench/bench_serve.cpp ----------------------------------------------===//
//
// Serving-path benchmark: one in-process lcdfg-serve daemon, measured
// from the client side of a real unix socket so every row prices what a
// caller actually pays — framing, admission, cache, execution.
//
// Rows:
//   serve-fig6small  cold_p50 / warm_p50 seconds for the 3D flux chain at
//                    the fig6-small box scale. Cold requests carry
//                    cache:false (every one compiles); warm requests hit
//                    the primed cache. The cold/warm ratio is asserted
//                    >= 5x — that is the ISSUE's acceptance bar and the
//                    entire point of the plan cache.
//   serve-load       p50/p99/mean request seconds at 1, 4, and 8
//                    concurrent clients over a 6-key warm working set,
//                    plus informational idle_*_reqps and idle_*_hitrate
//                    keys (the idle_ prefix keeps bench_compare from
//                    gating throughput, which rises on faster hardware).
//
// Knobs: SERVE_REQS per-configuration request count (default 240),
// SERVE_SIZE chain extent (default 24), MFD_REPS cold/warm repetitions
// (default 3, via bench::Config).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/Json.h"

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::serve;

namespace {

/// The MiniFluxDiv-shaped workload: a fused 3D flux/accumulate pair, the
/// serving-path stand-in for the fig6 small-box chain.
const char *Fig6SmallChain = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N, 0:N) with (x, y, z) \
    write FX{(x,y,z)} read U{(x,y,z),(x+1,y,z)}
S1: FX(x,y,z) = flux(U(x,y,z), U(x+1,y,z));
#pragma omplc for domain(0:N, 0:N, 0:N) with (x, y, z) \
    write V{(x,y,z)} read FX{(x,y,z)}
S2: V(x,y,z) = acc(FX(x,y,z));
}
)";

long envLong(const char *Name, long Def) {
  const char *V = std::getenv(Name);
  return V && *V ? std::atol(V) : Def;
}

std::string runRequest(std::int64_t Size, bool Bypass) {
  using support::jsonField;
  return support::jsonObject({jsonField("chain", Fig6SmallChain),
                              jsonField("size", Size),
                              Bypass ? jsonField("cache", false) : ""});
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V[static_cast<std::size_t>(Q * static_cast<double>(V.size() - 1))];
}

double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

/// One timed request; exits the bench on any failure — a benchmark that
/// quietly times errors measures nothing.
std::string fmtRatio(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4g", V);
  return Buf;
}

double timedRequest(Client &C, const std::string &Line) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
  auto R = C.request(Line, 120000);
  double Sec = std::chrono::duration<double>(Clock::now() - T0).count();
  if (!R || !R->find("ok") || !R->find("ok")->asBool()) {
    std::fprintf(stderr, "bench_serve: request failed: %s\n",
                 R ? "server error response" : R.error().toString().c_str());
    std::exit(1);
  }
  return Sec;
}

} // namespace

int main() {
  const bench::Config Cfg = bench::Config::fromEnvironment();
  const long Reqs = envLong("SERVE_REQS", 240);
  const std::int64_t Size = envLong("SERVE_SIZE", 24);
  bench::JsonReport Json;

  ServerOptions Opts;
  Opts.UnixPath =
      "/tmp/lcdfg-bench-" + std::to_string(static_cast<long>(::getpid())) +
      ".sock";
  Server Srv(Opts);
  if (!Srv.start().isOk()) {
    std::fprintf(stderr, "bench_serve: server failed to start\n");
    return 1;
  }

  auto Connect = [&] {
    auto C = Client::connectUnix(Opts.UnixPath);
    if (!C) {
      std::fprintf(stderr, "bench_serve: connect failed: %s\n",
                   C.error().toString().c_str());
      std::exit(1);
    }
    return std::move(*C);
  };

  // --- Cold vs warm on the fig6-small chain -------------------------------
  bench::printHeader("Serve latency, fig6-small 3D flux chain (N=" +
                         std::to_string(Size) + ")",
                     "row           p50        speedup");
  {
    Client C = Connect();
    std::vector<double> Cold, Warm;
    (void)timedRequest(C, runRequest(Size, false)); // Prime the cache.
    for (int R = 0; R < std::max(Cfg.Reps * 3, 9); ++R) {
      Cold.push_back(timedRequest(C, runRequest(Size, true)));
      Warm.push_back(timedRequest(C, runRequest(Size, false)));
    }
    double ColdP50 = percentile(Cold, 0.5), WarmP50 = percentile(Warm, 0.5);
    double Speedup = WarmP50 > 0.0 ? ColdP50 / WarmP50 : 0.0;
    bench::printRow({"cold", bench::fmtSeconds(ColdP50), ""});
    bench::printRow({"warm", bench::fmtSeconds(WarmP50), fmtRatio(Speedup) + "x"});
    Json.record("serve-fig6small", "cold_p50", ColdP50);
    Json.record("serve-fig6small", "warm_p50", WarmP50);
    Json.record("serve-fig6small", "idle_speedup", Speedup);
    if (Speedup < 5.0) {
      std::fprintf(stderr,
                   "bench_serve: warm-cache speedup %.2fx is below the 5x "
                   "acceptance bar (cold %.6fs, warm %.6fs)\n",
                   Speedup, ColdP50, WarmP50);
      return 1;
    }
  }

  // --- Concurrent-client sweep over a warm working set --------------------
  static const std::int64_t WorkingSet[] = {8, 10, 12, 14, 16, 20};
  {
    Client C = Connect();
    for (std::int64_t S : WorkingSet)
      (void)timedRequest(C, runRequest(S, false));
  }

  bench::printHeader("Serve throughput, 6-key warm working set (" +
                         std::to_string(Reqs) + " requests/config)",
                     "clients  p50        p99        req/s      hit-rate");
  for (int Clients : {1, 4, 8}) {
    ServerStats Before = Srv.stats();
    std::vector<std::vector<double>> PerThread(
        static_cast<std::size_t>(Clients));
    std::atomic<long> Next{0};
    using Clock = std::chrono::steady_clock;
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (int T = 0; T < Clients; ++T)
      Ts.emplace_back([&, T] {
        Client C = Connect();
        std::vector<double> &Lat = PerThread[static_cast<std::size_t>(T)];
        for (long I = Next.fetch_add(1); I < Reqs; I = Next.fetch_add(1)) {
          std::int64_t S =
              WorkingSet[static_cast<std::size_t>(I) % std::size(WorkingSet)];
          Lat.push_back(timedRequest(C, runRequest(S, false)));
        }
      });
    for (std::thread &T : Ts)
      T.join();
    double Elapsed = std::chrono::duration<double>(Clock::now() - T0).count();

    std::vector<double> All;
    for (const std::vector<double> &L : PerThread)
      All.insert(All.end(), L.begin(), L.end());
    ServerStats After = Srv.stats();
    double HitRate =
        After.Admitted > Before.Admitted
            ? static_cast<double>(After.Hits - Before.Hits) /
                  static_cast<double>(After.Admitted - Before.Admitted)
            : 0.0;
    double ReqPerSec =
        Elapsed > 0.0 ? static_cast<double>(All.size()) / Elapsed : 0.0;
    std::string Tag = "c" + std::to_string(Clients);
    bench::printRow({std::to_string(Clients),
                     bench::fmtSeconds(percentile(All, 0.5)),
                     bench::fmtSeconds(percentile(All, 0.99)),
                     fmtRatio(ReqPerSec), fmtRatio(HitRate)});
    Json.record("serve-load", Tag + "_p50", percentile(All, 0.5));
    Json.record("serve-load", Tag + "_p99", percentile(All, 0.99));
    Json.record("serve-load", Tag + "_mean", mean(All));
    Json.record("serve-load", "idle_" + Tag + "_reqps", ReqPerSec);
    Json.record("serve-load", "idle_" + Tag + "_hitrate", HitRate);
  }

  Srv.stop();
  if (!Json.write())
    return 1;
  return 0;
}
