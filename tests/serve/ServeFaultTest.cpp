//===- tests/serve/ServeFaultTest.cpp -------------------------------------===//
//
// Per-request fault isolation: every row of the serve fault matrix arms
// one injected failure, asserts the poisoned request surfaces exactly its
// documented E-code (on whichever side of the wire the contract puts it),
// and — the isolation half — asserts concurrent clean requests complete
// with results bit-identical to a fault-free baseline. Execution-layer
// faults (kernel:throw) ride the same path and must come back as
// *recovered* responses, not errors: the daemon's ladder absorbs them.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ServeTestUtil.h"
#include "exec/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::serve;
using namespace serve_test;
using support::JsonValue;
using support::parseJson;
using support::ErrorCode;

namespace {

exec::FaultSpec spec(const char *Text) {
  return exec::FaultInjector::parseSpec(Text).expect("fault spec");
}

/// One server + the fault-free baseline checksum for the canonical
/// request, torn down (and the injector disarmed) per test.
class ServeFaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    Opts.UnixPath = uniqueSocketPath("fault");
    Srv = std::make_unique<Server>(Opts);
    ASSERT_TRUE(Srv->start().isOk());

    RequestBuilder B = baseRequest();
    auto C = Client::connectUnix(Opts.UnixPath);
    ASSERT_TRUE(bool(C));
    auto R = C->request(B.line());
    ASSERT_TRUE(bool(R)) << R.error().toString();
    ASSERT_TRUE(R->find("ok")->asBool());
    BaselineFnv = R->find("result_fnv")->asString();
    ASSERT_EQ(BaselineFnv.size(), 16u);
  }

  void TearDown() override {
    exec::FaultInjector::global().disarm();
    if (Srv)
      Srv->stop();
  }

  static RequestBuilder baseRequest() {
    RequestBuilder B;
    B.Script = Fig1Script;
    B.Size = 16;
    B.Checksum = 1;
    return B;
  }

  ServerOptions Opts;
  std::unique_ptr<Server> Srv;
  std::string BaselineFnv;
};

TEST_F(ServeFaultTest, ServeDropClosesBeforeTheResponse) {
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("serve:drop"));

  auto R = C->request(baseRequest().line());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().code(), ErrorCode::PeerLost);
  EXPECT_EQ(exec::FaultInjector::global().firedCount(), 1u);

  // One-shot: a reconnecting client gets a clean, bit-identical answer.
  auto C2 = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C2));
  auto R2 = C2->request(baseRequest().line());
  ASSERT_TRUE(bool(R2)) << R2.error().toString();
  EXPECT_TRUE(R2->find("ok")->asBool());
  EXPECT_EQ(R2->find("result_fnv")->asString(), BaselineFnv);
}

TEST_F(ServeFaultTest, ServeTruncateYieldsAPartialFrameE020) {
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("serve:truncate"));

  auto R = C->request(baseRequest().line());
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().code(), ErrorCode::Protocol);
  EXPECT_NE(R.error().message().find("mid-frame"), std::string::npos);

  auto C2 = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C2));
  auto R2 = C2->request(baseRequest().line());
  ASSERT_TRUE(bool(R2));
  EXPECT_EQ(R2->find("result_fnv")->asString(), BaselineFnv);
}

TEST_F(ServeFaultTest, ServeDelayPastTheDeadlineIsE019) {
  ::setenv("LCDFG_SERVE_DELAY_MS", "1000", 1);
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("serve:delay"));

  auto R = C->request(baseRequest().line(), /*TimeoutMs=*/150);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().code(), ErrorCode::ExchangeTimeout);
  ::unsetenv("LCDFG_SERVE_DELAY_MS");
}

TEST_F(ServeFaultTest, ShortServeDelayIsAbsorbed) {
  ::setenv("LCDFG_SERVE_DELAY_MS", "50", 1);
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("serve:delay"));

  auto R = C->request(baseRequest().line(), /*TimeoutMs=*/10000);
  ASSERT_TRUE(bool(R)) << R.error().toString();
  EXPECT_TRUE(R->find("ok")->asBool());
  EXPECT_EQ(R->find("result_fnv")->asString(), BaselineFnv);
  ::unsetenv("LCDFG_SERVE_DELAY_MS");
}

TEST_F(ServeFaultTest, KernelThrowIsRecoveredNotAnError) {
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("kernel:throw"));

  RequestBuilder B = baseRequest();
  B.Threads = 2;
  auto R = C->request(B.line(), 30000);
  ASSERT_TRUE(bool(R)) << R.error().toString();
  EXPECT_TRUE(R->find("ok")->asBool());
  const JsonValue *Report = R->find("report");
  ASSERT_NE(Report, nullptr);
  EXPECT_TRUE(Report->find("recovered")->asBool());
  // The descent reason must name the worker exception.
  ASSERT_TRUE(Report->find("descents")->isArray());
  ASSERT_FALSE(Report->find("descents")->Items.empty());
  EXPECT_EQ(Report->find("descents")->Items[0].find("reason")->asString(),
            "L002-worker-exception");
  // Recovered output == clean output, bit for bit.
  EXPECT_EQ(R->find("result_fnv")->asString(), BaselineFnv);
}

TEST_F(ServeFaultTest, TruncatedInputHashesTheFallbackStore) {
  // input:truncate shrinks a space of the request's primary store, so
  // plan validation fails deterministically (L006) and the ladder
  // completes on the fallback plan against its own store. result_fnv
  // must hash that store, which holds the answer, not the abandoned one.
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  exec::FaultInjector::global().arm(spec("input:truncate"));

  auto R = C->request(baseRequest().line(), 30000);
  ASSERT_TRUE(bool(R)) << R.error().toString();
  EXPECT_TRUE(R->find("ok")->asBool());
  const JsonValue *Report = R->find("report");
  ASSERT_NE(Report, nullptr);
  EXPECT_EQ(Report->find("final_rung")->asString().rfind("fallback-", 0), 0u)
      << Report->find("final_rung")->asString();
  EXPECT_EQ(R->find("result_fnv")->asString(), BaselineFnv);
}

TEST_F(ServeFaultTest, FaultedRequestIsIsolatedFromConcurrentCleanOnes) {
  // Arm one drop; fire 1 + 4 concurrent requests. Exactly one client sees
  // E018; every completed response is bit-identical to the baseline.
  exec::FaultInjector::global().arm(spec("serve:drop"));

  constexpr int NumClients = 5;
  std::vector<int> Outcome(NumClients, -1); // 0 = ok, 1 = E018.
  std::vector<std::string> Fnv(NumClients);
  std::vector<std::thread> Ts;
  std::string Line = baseRequest().line();
  for (int I = 0; I < NumClients; ++I)
    Ts.emplace_back([&, I] {
      auto C = Client::connectUnix(Opts.UnixPath);
      if (!C)
        return;
      auto R = C->request(Line, 30000);
      std::size_t Idx = static_cast<std::size_t>(I);
      if (!R) {
        Outcome[Idx] = R.error().code() == ErrorCode::PeerLost ? 1 : 2;
        return;
      }
      Outcome[Idx] = R->find("ok")->asBool() ? 0 : 3;
      if (Outcome[Idx] == 0)
        Fnv[Idx] = R->find("result_fnv")->asString();
    });
  for (std::thread &T : Ts)
    T.join();

  int Dropped = 0, Clean = 0;
  for (int I = 0; I < NumClients; ++I) {
    std::size_t Idx = static_cast<std::size_t>(I);
    if (Outcome[Idx] == 1) {
      ++Dropped;
    } else {
      ASSERT_EQ(Outcome[Idx], 0) << "client " << I << " unexpected outcome";
      EXPECT_EQ(Fnv[Idx], BaselineFnv) << "client " << I;
      ++Clean;
    }
  }
  EXPECT_EQ(Dropped, 1);
  EXPECT_EQ(Clean, NumClients - 1);
  EXPECT_EQ(exec::FaultInjector::global().firedCount(), 1u);

  ServerStats S = Srv->stats();
  EXPECT_EQ(S.Hits + S.Misses, S.Admitted);
}

TEST_F(ServeFaultTest, HostileInputRowsAreClientDriven) {
  // Oversized frame: E020 response, connection closed by the server.
  {
    ServerOptions Small;
    Small.UnixPath = uniqueSocketPath("fault-oversize");
    Small.MaxLineBytes = 2048;
    Server SmallSrv(Small);
    ASSERT_TRUE(SmallSrv.start().isOk());
    auto C = Client::connectUnix(Small.UnixPath);
    ASSERT_TRUE(bool(C));
    ASSERT_TRUE(C->sendLine(std::string(16 * 1024, 'z')).isOk());
    auto R = C->recvLine(5000);
    ASSERT_TRUE(bool(R));
    auto V = parseJson(*R);
    ASSERT_TRUE(bool(V));
    EXPECT_EQ(V->find("status")->find("code")->asString(), "E020-protocol");
    SmallSrv.stop();
  }

  // Mid-request disconnect storm against the shared server, then a clean
  // request: the daemon must neither crash nor wedge.
  for (int I = 0; I < 8; ++I) {
    auto C = Client::connectUnix(Opts.UnixPath);
    ASSERT_TRUE(bool(C));
    ASSERT_TRUE(C->sendRaw("{\"chain\":\"half").isOk());
    C->closeNow();
  }
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  auto R = C->request(baseRequest().line());
  ASSERT_TRUE(bool(R)) << R.error().toString();
  EXPECT_EQ(R->find("result_fnv")->asString(), BaselineFnv);
}

} // namespace
