//===- tests/serve/ServeTestUtil.h - Shared serve-test plumbing -*- C++ -*-===//
//
// Chain corpus, request builders, and collision-free socket paths shared
// by the protocol, fault, and soak suites. Every helper is deterministic;
// socket paths fold in the pid and an atomic counter so suites running
// concurrently (ctest -j, --repeat) never race on a bind.
//
//===----------------------------------------------------------------------===//

#ifndef LCDFG_TESTS_SERVE_SERVETESTUTIL_H
#define LCDFG_TESTS_SERVE_SERVETESTUTIL_H

#include "serve/Server.h"

#include <atomic>
#include <string>
#include <unistd.h>

namespace serve_test {

inline const char *Fig1Chain = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write VAL_1{(x,y)} read VAL_0{(x,y)}
S1: VAL_1(x,y) = func1(VAL_0(x,y));
#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) \
    write VAL_2{(x,y)} read VAL_1{(x,y),(x+1,y)}
S2: VAL_2(x,y) = func2(VAL_1(x,y), VAL_1(x+1,y));
}
)";

inline const char *Fig1Script = "fusepc S1 S2\n";

inline const char *Chain3D = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:X+1, 0:Y, 0:Z) with (x, y, z) order(z,y,x) \
    write A{(x,y,z)} read B{(x-1,y,z),(x,y,z)}
S1: A(x,y,z) = f(B(x-1,y,z), B(x,y,z));
}
)";

inline const char *Chain1D = R"(
#pragma omplc for domain(0:N) with (x) write OUT{(x)} read IN{(x)}
S: OUT(x) = g(IN(x));
)";

/// A bind-safe unix socket path unique to (pid, call); short enough for
/// sockaddr_un even on deep tmpdirs because it is rooted at /tmp.
inline std::string uniqueSocketPath(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/lcdfg-" + std::string(Tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(Counter.fetch_add(1)) + ".sock";
}

/// Assembles one run-request line. Empty strings / zero values drop the
/// optional fields to their protocol defaults.
struct RequestBuilder {
  std::string Chain = Fig1Chain;
  std::string Script;
  std::int64_t Size = 8;
  std::int64_t Widen = 0;
  std::int64_t Threads = 0;
  std::string Kernels;
  int Batched = -1; ///< -1 absent, 0 false, 1 true.
  int Harden = -1;
  int Cache = -1;
  int Checksum = -1;
  std::int64_t MemBudget = -1;
  std::string Id;

  std::string line() const {
    using lcdfg::support::jsonField;
    std::string L = "{" + jsonField("chain", std::string_view(Chain));
    if (!Id.empty())
      L += "," + jsonField("id", std::string_view(Id));
    if (!Script.empty())
      L += "," + jsonField("script", std::string_view(Script));
    L += "," + jsonField("size", Size);
    if (Widen > 0)
      L += "," + jsonField("widen", Widen);
    if (Threads > 0)
      L += "," + jsonField("threads", Threads);
    if (!Kernels.empty())
      L += "," + jsonField("kernels", std::string_view(Kernels));
    if (Batched >= 0)
      L += "," + jsonField("batched", Batched != 0);
    if (Harden >= 0)
      L += "," + jsonField("harden", Harden != 0);
    if (Cache >= 0)
      L += "," + jsonField("cache", Cache != 0);
    if (Checksum >= 0)
      L += "," + jsonField("checksum", Checksum != 0);
    if (MemBudget >= 0)
      L += "," + jsonField("mem_budget", MemBudget);
    L += "}";
    return L;
  }
};

} // namespace serve_test

#endif // LCDFG_TESTS_SERVE_SERVETESTUTIL_H
