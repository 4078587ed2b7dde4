//===- tests/shard/ShardRunnerTest.cpp ------------------------------------===//
//
// End-to-end sharded execution: clean multi-process runs must be
// bit-identical to the scalar-serial oracle, a short msg:delay must be
// absorbed by the resend retries, and every terminal fault in the
// acceptance matrix must descend to L009-shard-degraded with — again —
// bit-identical results.
//
// Everything before runSharded's fork must stay single-threaded: the
// oracle runs at Threads = 1 (rt::parallelFor executes inline) and no test
// here touches the global ThreadPool.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardRunner.h"

#include "exec/FaultInjector.h"
#include "shard/Topology.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace {

using namespace lcdfg;
using namespace lcdfg::shard;

std::vector<rt::Box> makeState(const rt::GridLayout &Layout, int N, int G,
                               int NumComp) {
  std::vector<rt::Box> Boxes;
  Boxes.reserve(static_cast<std::size_t>(Layout.numBoxes()));
  for (int I = 0; I < Layout.numBoxes(); ++I) {
    Boxes.emplace_back(N, G, NumComp);
    Boxes.back().fillPseudoRandom(0x5eedULL +
                                  static_cast<std::uint64_t>(I) * 1009);
  }
  return Boxes;
}

/// A 7-point box-local average: reads one ghost layer in every direction,
/// so every exchanged halo double feeds the result.
void averageStep(const rt::Box &In, rt::Box &Out) {
  for (int C = 0; C < In.numComponents(); ++C)
    for (int Z = 0; Z < In.size(); ++Z)
      for (int Y = 0; Y < In.size(); ++Y)
        for (int X = 0; X < In.size(); ++X)
          Out.at(C, Z, Y, X) =
              (In.at(C, Z, Y, X) + In.at(C, Z - 1, Y, X) +
               In.at(C, Z + 1, Y, X) + In.at(C, Z, Y - 1, X) +
               In.at(C, Z, Y + 1, X) + In.at(C, Z, Y, X - 1) +
               In.at(C, Z, Y, X + 1)) /
              7.0;
}

::testing::AssertionResult bitIdentical(const std::vector<rt::Box> &A,
                                        const std::vector<rt::Box> &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << "box counts differ: " << A.size() << " vs " << B.size();
  for (std::size_t I = 0; I < A.size(); ++I)
    for (int C = 0; C < A[I].numComponents(); ++C)
      for (int Z = 0; Z < A[I].size(); ++Z)
        for (int Y = 0; Y < A[I].size(); ++Y)
          for (int X = 0; X < A[I].size(); ++X)
            if (A[I].at(C, Z, Y, X) != B[I].at(C, Z, Y, X))
              return ::testing::AssertionFailure()
                     << "box " << I << " comp " << C << " (" << Z << "," << Y
                     << "," << X << "): " << A[I].at(C, Z, Y, X)
                     << " != " << B[I].at(C, Z, Y, X);
  return ::testing::AssertionSuccess();
}

/// Arms the global injector for one test and disarms on scope exit.
struct ArmedFault {
  explicit ArmedFault(const std::string &Specs) {
    auto Parsed = exec::FaultInjector::parseSpecs(Specs);
    EXPECT_TRUE(Parsed) << Specs;
    if (Parsed)
      exec::FaultInjector::global().arm(*Parsed);
  }
  ~ArmedFault() { exec::FaultInjector::global().disarm(); }
};

struct OracleAndRun {
  std::vector<rt::Box> Oracle;
  std::vector<rt::Box> Sharded;
  ShardReport Report;
};

OracleAndRun runBoth(const rt::GridLayout &Layout, int N, int G, int NumComp,
                     int Steps, ShardOptions Opts) {
  OracleAndRun R;
  R.Oracle = makeState(Layout, N, G, NumComp);
  EXPECT_TRUE(
      runSerialReference(R.Oracle, Layout, Steps, averageStep).isOk());
  R.Sharded = makeState(Layout, N, G, NumComp);
  R.Report = runSharded(R.Sharded, Layout, Steps, averageStep, Opts);
  return R;
}

TEST(ShardOptions, FromEnvKeepsTheBaseOnMalformedMilliseconds) {
  // Both settings are positive milliseconds, read whole: a unit suffix, a
  // non-positive value or one whose derived deadlines would overflow an
  // int keeps the caller's value.
  ShardOptions Base;
  Base.TimeoutMs = 400;
  Base.DelayMs = 20;
  for (const char *Bad :
       {"150ms", "0", "-5", "2147483647", "4294967346", "abc"}) {
    ::setenv("LCDFG_SHARD_TIMEOUT_MS", Bad, 1);
    ::setenv("LCDFG_SHARD_DELAY_MS", Bad, 1);
    ShardOptions O = ShardOptions::fromEnv(Base);
    EXPECT_EQ(O.TimeoutMs, 400) << Bad;
    EXPECT_EQ(O.DelayMs, 20) << Bad;
  }
  ::setenv("LCDFG_SHARD_TIMEOUT_MS", "150", 1);
  ::setenv("LCDFG_SHARD_DELAY_MS", "30", 1);
  ShardOptions O = ShardOptions::fromEnv(Base);
  EXPECT_EQ(O.TimeoutMs, 150);
  EXPECT_EQ(O.DelayMs, 30);
  ::unsetenv("LCDFG_SHARD_TIMEOUT_MS");
  ::unsetenv("LCDFG_SHARD_DELAY_MS");
}

TEST(ShardRunner, SingleShardMatchesTheSerialReference) {
  const rt::GridLayout Layout{2, 2, 2};
  OracleAndRun R = runBoth(Layout, 4, 1, 2, 3, ShardOptions{});
  EXPECT_TRUE(R.Report.Completed);
  EXPECT_FALSE(R.Report.Recovered);
  EXPECT_EQ(R.Report.FinalRung, "sharded-1");
  EXPECT_TRUE(R.Report.Descents.empty());
  EXPECT_TRUE(bitIdentical(R.Sharded, R.Oracle));
}

TEST(ShardRunner, TwoShardsAreBitIdenticalToTheOracle) {
  const rt::GridLayout Layout{4, 2, 2};
  ShardOptions Opts;
  Opts.Shards = 2;
  Opts.Threads = 2; // exercises the interior/gather overlap window
  Opts.TimeoutMs = 8000;
  OracleAndRun R = runBoth(Layout, 4, 1, 2, 3, Opts);
  EXPECT_TRUE(R.Report.Completed) << R.Report.toString();
  EXPECT_FALSE(R.Report.Recovered);
  EXPECT_EQ(R.Report.FinalRung, "sharded-2");
  EXPECT_GT(R.Report.Stats.Exchanges, 0);
  EXPECT_GT(R.Report.Stats.Bytes, 0);
  EXPECT_EQ(R.Report.Stats.Timeouts, 0);
  EXPECT_EQ(R.Report.Stats.PeersLost, 0);
  EXPECT_TRUE(bitIdentical(R.Sharded, R.Oracle));
}

TEST(ShardRunner, FourSingleRowShardsWithFullDepthGhostsAreBitIdentical) {
  // Bz == Shards puts every owned box on the boundary (no interior
  // overlap), and G == N makes the two faces of a box overlap completely —
  // the degenerate slab shapes the topology must still handle.
  const rt::GridLayout Layout{4, 2, 1};
  ShardOptions Opts;
  Opts.Shards = 4;
  Opts.Threads = 2;
  Opts.TimeoutMs = 8000;
  OracleAndRun R = runBoth(Layout, 2, 2, 1, 3, Opts);
  EXPECT_TRUE(R.Report.Completed) << R.Report.toString();
  EXPECT_FALSE(R.Report.Recovered);
  EXPECT_EQ(R.Report.FinalRung, "sharded-4");
  EXPECT_TRUE(bitIdentical(R.Sharded, R.Oracle));
}

TEST(ShardRunner, ShortDelayIsAbsorbedByResendRetries) {
  // A delay well under the deadline: rank 0 stalls its first frame, the
  // receiving peer's backoff loop issues resend requests, and the step
  // completes without any descent.
  ArmedFault Fault("msg:delay");
  const rt::GridLayout Layout{4, 2, 2};
  ShardOptions Opts;
  Opts.Shards = 2;
  Opts.Threads = 2;
  Opts.TimeoutMs = 8000;
  Opts.DelayMs = 120;
  OracleAndRun R = runBoth(Layout, 4, 1, 2, 3, Opts);
  EXPECT_TRUE(R.Report.Completed) << R.Report.toString();
  EXPECT_FALSE(R.Report.Recovered) << R.Report.toString();
  EXPECT_TRUE(R.Report.Descents.empty());
  EXPECT_GT(R.Report.Stats.Retries, 0) << R.Report.toString();
  EXPECT_TRUE(bitIdentical(R.Sharded, R.Oracle));
}

struct MatrixCase {
  const char *Spec;
  int Shards;
};

// Print the fault spec and shard count instead of gtest's default byte
// dump, whose pointer bytes change from run to run.
void PrintTo(const MatrixCase &C, std::ostream *OS) {
  *OS << C.Spec << " x" << C.Shards;
}

class ShardFaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ShardFaultMatrix, DescendsToL009AndStaysBitIdentical) {
  const MatrixCase &Case = GetParam();
  ArmedFault Fault(Case.Spec);
  const rt::GridLayout Layout{4, 2, 2};
  ShardOptions Opts;
  Opts.Shards = Case.Shards;
  Opts.Threads = 2;
  Opts.TimeoutMs = 400; // DelayMs defaults to 3x: past the deadline
  OracleAndRun R = runBoth(Layout, 4, 1, 2, 3, Opts);
  EXPECT_TRUE(R.Report.Completed) << R.Report.toString();
  EXPECT_TRUE(R.Report.Recovered) << R.Report.toString();
  EXPECT_EQ(R.Report.FinalRung, "shard-degraded-serial");
  ASSERT_EQ(R.Report.Descents.size(), 1u);
  EXPECT_EQ(R.Report.Descents[0].Reason, "L009-shard-degraded");
  EXPECT_EQ(R.Report.Descents[0].Rung,
            "sharded-" + std::to_string(Case.Shards));
  EXPECT_TRUE(bitIdentical(R.Sharded, R.Oracle));
  // The failure class must be visible in the stats the report carries.
  if (std::string(Case.Spec).rfind("peer:", 0) == 0)
    EXPECT_GT(R.Report.Stats.PeersLost, 0) << R.Report.toString();
  else
    EXPECT_GT(R.Report.Stats.Timeouts + R.Report.Stats.PeersLost, 0)
        << R.Report.toString();
}

INSTANTIATE_TEST_SUITE_P(
    AcceptanceMatrix, ShardFaultMatrix,
    ::testing::Values(MatrixCase{"peer:kill", 2}, MatrixCase{"peer:kill:2", 4},
                      MatrixCase{"msg:drop", 2}, MatrixCase{"msg:drop", 4},
                      MatrixCase{"msg:truncate", 2},
                      MatrixCase{"msg:truncate", 4},
                      MatrixCase{"msg:delay", 2}, MatrixCase{"msg:delay", 4}),
    [](const ::testing::TestParamInfo<MatrixCase> &Info) {
      std::string Name = Info.param.Spec;
      for (char &C : Name)
        if (C == ':')
          C = '_';
      return Name + "_x" + std::to_string(Info.param.Shards);
    });

TEST(ShardRunner, InvalidShardCountFailsStructurally) {
  const rt::GridLayout Layout{4, 2, 2};
  std::vector<rt::Box> Boxes = makeState(Layout, 4, 1, 1);
  ShardOptions Opts;
  Opts.Shards = 5; // > Bz
  ShardReport Report = runSharded(Boxes, Layout, 3, averageStep, Opts);
  EXPECT_FALSE(Report.Completed);
  EXPECT_EQ(Report.Error.code(), support::ErrorCode::InvalidChain);
  EXPECT_EQ(Report.Error.subcode(), "shard-topology");
  EXPECT_NE(Report.toJson().find("\"completed\":false"), std::string::npos);
}

TEST(ShardRunner, BadGridIsRejectedBeforeForking) {
  const rt::GridLayout Layout{2, 2, 2};
  std::vector<rt::Box> Boxes = makeState(Layout, 4, 1, 1);
  Boxes.pop_back(); // box count no longer matches the layout
  ShardOptions Opts;
  Opts.Shards = 2;
  ShardReport Report = runSharded(Boxes, Layout, 1, averageStep, Opts);
  EXPECT_FALSE(Report.Completed);
  EXPECT_EQ(Report.Error.code(), support::ErrorCode::InvalidChain);
  EXPECT_EQ(Report.Error.subcode(), "ghost-grid");
}

TEST(ShardReport, JsonMirrorsTheRunReportShape) {
  const rt::GridLayout Layout{2, 1, 1};
  ShardOptions Opts;
  Opts.Shards = 2;
  Opts.Threads = 1;
  Opts.TimeoutMs = 8000;
  OracleAndRun R = runBoth(Layout, 3, 1, 1, 2, Opts);
  ASSERT_TRUE(R.Report.Completed) << R.Report.toString();
  const std::string Json = R.Report.toJson();
  EXPECT_NE(Json.find("\"completed\":true"), std::string::npos);
  EXPECT_NE(Json.find("\"recovered\":false"), std::string::npos);
  EXPECT_NE(Json.find("\"final_rung\":\"sharded-2\""), std::string::npos);
  EXPECT_NE(Json.find("\"descents\":[]"), std::string::npos);
  EXPECT_NE(Json.find("\"stats\":{\"exchanges\":"), std::string::npos);
}

} // namespace
