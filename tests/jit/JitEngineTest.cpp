//===- tests/jit/JitEngineTest.cpp ----------------------------------------===//
//
// The host-compiler kernel backend. Compiled row kernels must be bitwise
// interchangeable with KernelExpr::eval, the two-level cache must
// serve repeats without recompiling (and recover from a corrupted object
// by rebuilding it), and every failure mode — dead compiler, disabled
// engine — must surface as E017 and descend the recovery ladder with
// L008 while staying bit-identical to the interpreted run.
//
// Every compiling test skips cleanly on a machine without a working host
// compiler; the failure-path tests run everywhere.
//
//===----------------------------------------------------------------------===//

#include "jit/JitEngine.h"

#include "codegen/KernelExpr.h"
#include "driver/Lowering.h"
#include "exec/Recovery.h"
#include "exec/RowPlan.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::jit;

namespace fs = std::filesystem;

namespace {

/// A fresh cache directory per test, rooted under gtest's temp dir so
/// parallel test binaries never share state.
std::string freshCacheDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "lcdfg-jit-test-" + Name + "-" +
                    std::to_string(::getpid());
  fs::remove_all(Dir);
  return Dir;
}

EngineOptions optsFor(const std::string &Dir) {
  EngineOptions O;
  O.CacheDir = Dir;
  return O;
}

/// The reference stencil used across the cache tests:
///   W[x] = W[x] + 0.5 * (R1[2x] - R0[x])
codegen::KernelExpr stencilExpr() {
  using codegen::current;
  using codegen::read;
  return current() + 0.5 * (read(1) - read(0));
}

/// A one-statement row over x = 0..N-1 running \p E: direct write into
/// space 0, direct reads R0 (space 1, stride 1) and R1 (space 2, stride 2).
/// \p E must outlive the descriptor.
codegen::RowKernelDesc stencilDesc(const codegen::KernelExpr &E,
                                   std::int64_t N) {
  codegen::RowKernelDesc::Stmt St;
  St.Body = &E;
  St.Lo = 0;
  St.Hi = N - 1;
  St.Write = {/*Space=*/0, /*Modulo=*/false, /*ModSize=*/1,
              /*InnerStride=*/1, /*Flat=*/0, /*AliasesWrite=*/false};
  St.Reads = {{1, false, 1, 1, 1, false}, {2, false, 1, 2, 2, false}};
  codegen::RowKernelDesc Desc;
  Desc.Stmts.push_back(St);
  return Desc;
}

/// Runs the one-statement row kernel \p K of \p Desc (direct streams,
/// space J + 1 for read J) over its whole row and bit-compares against
/// KernelExpr::eval on the same inputs.
void expectRowMatchesEval(codegen::RowKernel K,
                          const codegen::RowKernelDesc &Desc) {
  const codegen::RowKernelDesc::Stmt &St = Desc.Stmts[0];
  const std::int64_t N = St.Hi + 1;
  std::vector<double> W(static_cast<std::size_t>(N * St.Write.InnerStride));
  std::vector<std::vector<double>> Reads;
  for (std::size_t J = 0; J < St.Reads.size(); ++J) {
    std::vector<double> R(
        static_cast<std::size_t>(N * St.Reads[J].InnerStride));
    for (std::size_t I = 0; I < R.size(); ++I)
      R[I] = 0.25 + 0.001 * static_cast<double>((J + 2) * (I + 1));
    Reads.push_back(std::move(R));
  }
  for (std::size_t I = 0; I < W.size(); ++I)
    W[I] = 1.0 + 0.01 * static_cast<double>(I);

  std::vector<double> Expected = W;
  for (std::int64_t I = 0; I < N; ++I) {
    std::vector<double> Vals;
    for (std::size_t J = 0; J < Reads.size(); ++J)
      Vals.push_back(
          Reads[J][static_cast<std::size_t>(I * St.Reads[J].InnerStride)]);
    std::size_t WI = static_cast<std::size_t>(I * St.Write.InnerStride);
    Expected[WI] = St.Body->eval(Vals, Expected[WI]);
  }

  std::vector<double *> Spaces = {W.data()};
  for (std::vector<double> &R : Reads)
    Spaces.push_back(R.data());
  std::vector<std::int64_t> Base(1 + Reads.size(), 0);
  std::int64_t Ctrs[2] = {0, 0};
  K(Spaces.data(), Base.data(), /*Admit=*/1, /*RowLo=*/0, /*RowHi=*/N - 1,
    Ctrs);

  ASSERT_EQ(Expected.size(), W.size());
  for (std::size_t I = 0; I < W.size(); ++I)
    EXPECT_EQ(Expected[I], W[I]) << "flat index " << I;
  EXPECT_EQ(1, Ctrs[0]) << "no wrap and no cap: one segment";
  EXPECT_EQ(0, Ctrs[1]);
}

/// Locates the single cached object file for a one-kernel engine run.
std::string onlyObjectIn(const std::string &Dir) {
  std::string Found;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".so")
      continue;
    EXPECT_TRUE(Found.empty()) << "more than one cached object in " << Dir;
    Found = E.path().string();
  }
  EXPECT_FALSE(Found.empty()) << "no cached object in " << Dir;
  return Found;
}

} // namespace

TEST(JitEngine, CompiledKernelIsBitIdenticalToEval) {
  Engine Eng(optsFor(freshCacheDir("eval")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  codegen::KernelExpr E = stencilExpr();
  const codegen::RowKernelDesc Desc = stencilDesc(E, 33);
  auto K = Eng.rowKernel(Desc);
  ASSERT_TRUE(K) << K.error().toString();
  expectRowMatchesEval(*K, Desc);
  EXPECT_EQ(1, Eng.stats().Compiled);
  EXPECT_EQ(0, Eng.stats().Failures);
}

TEST(JitEngine, AliasedReadStreamStillExact) {
  // A read stream that aliases the write drops restrict and the simd
  // pragma — the ascending-order contract must still hold bitwise.
  Engine Eng(optsFor(freshCacheDir("alias")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  using codegen::current;
  using codegen::read;
  codegen::KernelExpr E = current() + 0.5 * (read(1) - read(0));
  const std::int64_t N = 24;
  codegen::RowKernelDesc::Stmt St;
  St.Body = &E;
  St.Lo = 0;
  St.Hi = N - 1;
  St.Write = {/*Space=*/0, /*Modulo=*/false, /*ModSize=*/1,
              /*InnerStride=*/1, /*Flat=*/0, /*AliasesWrite=*/false};
  St.Reads = {{0, false, 1, 1, 1, /*AliasesWrite=*/true},
              {1, false, 1, 1, 2, false}};
  codegen::RowKernelDesc Desc;
  Desc.Stmts.push_back(St);
  auto K = Eng.rowKernel(Desc);
  ASSERT_TRUE(K) << K.error().toString();

  // The aliased read trails the write cursor by one element inside the
  // same buffer (the self-referencing stencil shape RowPlan produces):
  // with the ABI's ascending-order contract, lane I reads the value lane
  // I-1 just wrote, so any illegal vectorization shows up bitwise.
  std::vector<double> Buf(static_cast<std::size_t>(N) + 1);
  std::vector<double> R1(static_cast<std::size_t>(N));
  for (std::size_t I = 0; I < Buf.size(); ++I)
    Buf[I] = 1.0 + 0.01 * static_cast<double>(I);
  for (std::size_t I = 0; I < R1.size(); ++I)
    R1[I] = 0.25 + 0.002 * static_cast<double>(I);

  std::vector<double> Expected = Buf;
  for (std::int64_t I = 0; I < N; ++I) {
    std::size_t S = static_cast<std::size_t>(I) + 1;
    Expected[S] =
        E.eval({Expected[S - 1], R1[static_cast<std::size_t>(I)]}, Expected[S]);
  }

  // Pre-wrap bases: the write starts one element into the buffer, the
  // aliased read at its start, R1 at its start.
  double *Spaces[2] = {Buf.data(), R1.data()};
  std::int64_t Base[3] = {1, 0, 0};
  std::int64_t Ctrs[2] = {0, 0};
  (*K)(Spaces, Base, /*Admit=*/1, /*RowLo=*/0, /*RowHi=*/N - 1, Ctrs);
  for (std::size_t I = 0; I < Buf.size(); ++I)
    EXPECT_EQ(Expected[I], Buf[I]) << "flat index " << I;
}

TEST(JitEngine, FusedRowWalkerMatchesEvalAndCountsChunks) {
  // The fused row kernel is the segment walker with constants baked in:
  // over a modulo read window it must chunk at wrap boundaries (and at
  // MaxSegment), produce values bit-identical to the scalar eval order,
  // and report the same segment/wrap tallies the interpreter would.
  Engine Eng(optsFor(freshCacheDir("row")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  using codegen::current;
  using codegen::read;
  codegen::KernelExpr E = current() + read(0);

  // One statement over x = 0..9: W[x] += Win[(2 + x) mod 4].
  codegen::RowKernelDesc Desc;
  codegen::RowKernelDesc::Stmt St;
  St.Body = &E;
  St.Lo = 0;
  St.Hi = 9;
  St.Write = {/*Space=*/0, /*Modulo=*/false, /*ModSize=*/1,
              /*InnerStride=*/1, /*Flat=*/0, /*AliasesWrite=*/false};
  St.Reads = {{/*Space=*/1, /*Modulo=*/true, /*ModSize=*/4,
               /*InnerStride=*/1, /*Flat=*/1, /*AliasesWrite=*/false}};
  Desc.Stmts.push_back(St);

  auto RK = Eng.rowKernel(Desc);
  ASSERT_TRUE(RK) << RK.error().toString();

  std::vector<double> Out(10), Win = {10.0, 20.0, 30.0, 40.0};
  for (std::size_t I = 0; I < Out.size(); ++I)
    Out[I] = 0.125 * static_cast<double>(I);
  std::vector<double> Expected = Out;
  for (std::size_t X = 0; X < Expected.size(); ++X)
    Expected[X] = E.eval({Win[(2 + X) % 4]}, Expected[X]);

  double *Spaces[2] = {Out.data(), Win.data()};
  std::int64_t Base[2] = {0, 2}; // Pre-wrap bases: write at 0, read at 2.
  std::int64_t Ctrs[2] = {0, 0};
  (*RK)(Spaces, Base, /*Admit=*/1, /*RowLo=*/0, /*RowHi=*/9, Ctrs);
  for (std::size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Expected[I], Out[I]) << "flat index " << I;
  // Wrap countdown from phase 2 of a size-4 window: chunks 2, 4, 4 —
  // each ending exactly on a wrap boundary.
  EXPECT_EQ(3, Ctrs[0]);
  EXPECT_EQ(3, Ctrs[1]);

  // The same row under a conflict cap of 3 splits into more chunks but
  // must not change a single bit. A distinct desc compiles separately.
  Desc.MaxSegment = 3;
  auto Capped = Eng.rowKernel(Desc);
  ASSERT_TRUE(Capped) << Capped.error().toString();
  EXPECT_NE(*RK, *Capped);
  std::vector<double> Out2(10);
  for (std::size_t I = 0; I < Out2.size(); ++I)
    Out2[I] = 0.125 * static_cast<double>(I);
  Spaces[0] = Out2.data();
  std::int64_t Ctrs2[2] = {0, 0};
  (*Capped)(Spaces, Base, 1, 0, 9, Ctrs2);
  for (std::size_t I = 0; I < Out2.size(); ++I)
    EXPECT_EQ(Expected[I], Out2[I]) << "flat index " << I;
  EXPECT_GT(Ctrs2[0], Ctrs[0]);
  EXPECT_EQ(3, Ctrs2[1]);

  // An unadmitted statement must leave memory and counters untouched.
  std::vector<double> Out3(10, 7.0);
  Spaces[0] = Out3.data();
  std::int64_t Ctrs3[2] = {0, 0};
  (*RK)(Spaces, Base, /*Admit=*/0, 0, 9, Ctrs3);
  for (std::size_t I = 0; I < Out3.size(); ++I)
    EXPECT_EQ(7.0, Out3[I]);
  EXPECT_EQ(0, Ctrs3[0]);
  EXPECT_EQ(0, Ctrs3[1]);
}

TEST(JitEngine, SecondRequestHitsInMemoryCache) {
  Engine Eng(optsFor(freshCacheDir("mem")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  codegen::KernelExpr E = stencilExpr();
  const codegen::RowKernelDesc Desc = stencilDesc(E, 16);
  auto K1 = Eng.rowKernel(Desc);
  ASSERT_TRUE(K1) << K1.error().toString();
  auto K2 = Eng.rowKernel(Desc);
  ASSERT_TRUE(K2) << K2.error().toString();
  EXPECT_EQ(*K1, *K2);
  EXPECT_EQ(1, Eng.stats().Compiled);
  EXPECT_EQ(1, Eng.stats().CacheHits);
}

TEST(JitEngine, DiskCacheServesSecondEngineWithoutCompiling) {
  const std::string Dir = freshCacheDir("disk");
  codegen::KernelExpr E = stencilExpr();
  const codegen::RowKernelDesc Desc = stencilDesc(E, 19);
  {
    Engine A(optsFor(Dir));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.rowKernel(Desc);
    ASSERT_TRUE(K) << K.error().toString();
    EXPECT_EQ(1, A.stats().Compiled);
  }
  Engine B(optsFor(Dir));
  auto K = B.rowKernel(Desc);
  ASSERT_TRUE(K) << K.error().toString();
  EXPECT_EQ(0, B.stats().Compiled);
  EXPECT_EQ(1, B.stats().CacheHits);
  expectRowMatchesEval(*K, Desc);
}

TEST(JitEngine, FlagChangeInvalidatesCacheKey) {
  const std::string Dir = freshCacheDir("flags");
  codegen::KernelExpr E = stencilExpr();
  const codegen::RowKernelDesc Desc = stencilDesc(E, 19);
  {
    Engine A(optsFor(Dir));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.rowKernel(Desc);
    ASSERT_TRUE(K) << K.error().toString();
  }
  EngineOptions O = optsFor(Dir);
  O.ExtraFlags = "-DLCDFG_JIT_TEST_STALE";
  Engine B(std::move(O));
  ASSERT_TRUE(B.available()) << B.unavailableReason();
  auto K = B.rowKernel(Desc);
  ASSERT_TRUE(K) << K.error().toString();
  // Different flags, different key: the old object must not be reused.
  EXPECT_EQ(1, B.stats().Compiled);
  EXPECT_EQ(0, B.stats().CacheHits);
}

TEST(JitEngine, CorruptCachedObjectIsRebuilt) {
  // Mutation test: a cache dir seeded with a corrupt object under the
  // right key must be rebuilt transparently, not surfaced as an error.
  // The corrupt file goes into a *second* cache dir under the basename
  // engine A produced (the key covers compiler + flags + source, not the
  // directory), because dlopen dedups by path within one process — the
  // path engine B opens must be one this process never loaded.
  const std::string DirA = freshCacheDir("corrupt-a");
  const std::string DirB = freshCacheDir("corrupt-b");
  codegen::KernelExpr E = stencilExpr();
  const codegen::RowKernelDesc Desc = stencilDesc(E, 19);
  {
    Engine A(optsFor(DirA));
    if (!A.available())
      GTEST_SKIP() << "no host compiler: " << A.unavailableReason();
    auto K = A.rowKernel(Desc);
    ASSERT_TRUE(K) << K.error().toString();
  }
  const fs::path SoA = onlyObjectIn(DirA);
  fs::create_directories(DirB);
  const std::string SoB = (fs::path(DirB) / SoA.filename()).string();
  {
    std::ofstream Out(SoB, std::ios::trunc);
    Out << "not an elf object";
  }
  Engine B(optsFor(DirB));
  auto K = B.rowKernel(Desc);
  ASSERT_TRUE(K) << K.error().toString();
  EXPECT_EQ(1, B.stats().Compiled) << "corrupt object must be rebuilt";
  EXPECT_EQ(0, B.stats().Failures);
  expectRowMatchesEval(*K, Desc);
}

TEST(JitEngine, DeadCompilerIsUnavailableNotFatal) {
  EngineOptions O = optsFor(freshCacheDir("dead"));
  O.Compiler = "/bin/false";
  Engine Eng(std::move(O));
  EXPECT_FALSE(Eng.available());
  EXPECT_FALSE(Eng.unavailableReason().empty());
  const codegen::KernelExpr E = stencilExpr();
  auto K = Eng.rowKernel(stencilDesc(E, 8));
  ASSERT_FALSE(K);
  EXPECT_EQ(support::ErrorCode::JitUnavailable, K.error().code());
  EXPECT_GE(Eng.stats().Failures, 1);
  EXPECT_EQ(0, Eng.stats().Compiled);
}

TEST(JitEngine, DisabledEngineRefusesWithE017) {
  EngineOptions O = optsFor(freshCacheDir("disabled"));
  O.Enabled = false;
  Engine Eng(std::move(O));
  EXPECT_FALSE(Eng.available());
  const codegen::KernelExpr E = stencilExpr();
  auto K = Eng.rowKernel(stencilDesc(E, 8));
  ASSERT_FALSE(K);
  EXPECT_EQ(support::ErrorCode::JitUnavailable, K.error().code());
}

//===----------------------------------------------------------------------===//
// End-to-end: the recovery ladder around a real plan.
//===----------------------------------------------------------------------===//

namespace {

/// MiniFluxDiv harness, mirroring the Recovery suite: deterministic seeded
/// inputs, persistent outputs in extent order for bit-comparison.
struct Harness {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  graph::Graph G;
  storage::StoragePlan Plan;
  exec::ParamEnv Env;

  explicit Harness(std::int64_t N)
      : Chain(mfd::buildChain2D()), G(graph::buildGraph(Chain)),
        Plan(storage::StoragePlan::build(G, /*UseAllocation=*/false)),
        Env{{"N", N}} {
    mfd::registerKernels(Chain, Kernels);
  }

  storage::ConcreteStorage freshStore() {
    storage::ConcreteStorage Store(Plan, Env);
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentInput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            double V = 1.0;
            for (std::size_t D = 0; D < P.size(); ++D)
              V += 0.001 * static_cast<double>((D + 3) * P[D]);
            Store.at(Name, P) = V;
          });
    }
    return Store;
  }

  std::vector<double> outputs(storage::ConcreteStorage &Store) {
    std::vector<double> Out;
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentOutput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            Out.push_back(Store.at(Name, P));
          });
    }
    return Out;
  }

  std::vector<double> oracle() {
    storage::ConcreteStorage Store = freshStore();
    exec::ExecutionPlan P = exec::ExecutionPlan::fromChain(Chain, Store, Env);
    exec::RunOptions O;
    O.Batched = false;
    O.Threads = 1;
    exec::runPlan(P, Kernels, Store, O);
    return outputs(Store);
  }
};

} // namespace

TEST(JitRecovery, BrokenEngineDescendsL008BitIdentical) {
  // The satellite mutation test: a JIT engine that cannot deliver (dead
  // host compiler) must cost exactly one L008 descent, after which the
  // run completes on the interpreted batched bodies with outputs bitwise
  // equal to the scalar-serial oracle.
  Harness S(8);
  std::vector<double> Expected = S.oracle();

  EngineOptions O = optsFor(freshCacheDir("l008"));
  O.Compiler = "/bin/false";
  Engine Broken(std::move(O));

  storage::ConcreteStorage Store = S.freshStore();
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 1;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Broken;
  exec::RunReport R = exec::runWithRecovery(Plan, S.Kernels, Store, RO);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered) << R.toString();
  ASSERT_EQ(1u, R.Descents.size()) << R.toString();
  EXPECT_EQ(exec::ReasonJitUnavailable, R.Descents[0].Reason);
  EXPECT_EQ("jit-batched-serial", R.Descents[0].Rung);
  EXPECT_EQ("batched-serial", R.FinalRung);

  std::vector<double> Got = S.outputs(Store);
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

TEST(JitRecovery, WorkingEngineCompilesAndStaysBitIdentical) {
  Harness S(8);
  Engine Eng(optsFor(freshCacheDir("e2e")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 2;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Eng;
  exec::RunReport R = exec::runWithRecovery(Plan, S.Kernels, Store, RO);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_FALSE(R.Recovered) << R.toString();
  EXPECT_EQ("jit-batched-parallel", R.FinalRung);
  EXPECT_GE(Eng.stats().Compiled + Eng.stats().CacheHits, 1);

  std::vector<double> Got = S.outputs(Store);
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

TEST(JitRecovery, OneRowKernelRequestPerSpecializedInstruction) {
  // runPlan's analysis is the only one on the run path: the ladder reads
  // its L001/L008 verdicts from the run's dispatch record instead of
  // asking the engine again, so one recovering run requests exactly one
  // row kernel per specialized instruction.
  Harness S(8);
  Engine Eng(optsFor(freshCacheDir("once")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();

  storage::ConcreteStorage Store = S.freshStore();
  exec::ExecutionPlan Plan =
      exec::ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 1;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Eng;
  exec::RunReport R = exec::runWithRecovery(Plan, S.Kernels, Store, RO);
  ASSERT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Descents.empty()) << R.toString();

  ASSERT_EQ(R.Stats.Dispatch.size(), Plan.Instrs.size());
  std::int64_t Specialized = 0;
  for (const exec::PlanStats::DispatchStat &D : R.Stats.Dispatch)
    Specialized += D.Jit == exec::JitRefusal::Specialized;
  EXPECT_GT(Specialized, 0);
  EXPECT_EQ(Eng.stats().Compiled + Eng.stats().CacheHits, Specialized);
}

//===----------------------------------------------------------------------===//
// Instructions with no row kernel: benign refusals stay interpreted and
// silent, and an instruction that runs nothing falls back from nothing.
//===----------------------------------------------------------------------===//

namespace {

/// Opaque kernel for one read: scalar and batched bodies, no expression
/// form, so the JIT cannot emit it.
double opaqueScalar(const std::vector<double> &Reads, double Current) {
  return 0.5 * Reads[0] + Current;
}

void opaqueBatched(double *W, const double *const *R, const std::int64_t *S,
                   std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I)
    W[I * WS] = 0.5 * R[0][I * S[0]] + W[I * WS];
}

/// Parses \p Text, lets \p Prepare register kernels on the chain, applies
/// \p Script and lowers at \p Size through the shared driver stage.
driver::Lowered
lowerChain(const std::string &Text, const char *Script, std::int64_t Size,
           const std::function<void(ir::LoopChain &,
                                    codegen::KernelRegistry &)> &Prepare = {}) {
  parser::ParseResult P = parser::parseLoopChain(Text);
  EXPECT_TRUE(static_cast<bool>(P)) << P.Error;
  codegen::KernelRegistry Kernels;
  if (Prepare)
    Prepare(*P.Chain, Kernels);
  driver::Scheduled S(std::move(*P.Chain));
  parser::ScriptResult R = parser::runScript(*S.G, Script);
  EXPECT_TRUE(static_cast<bool>(R)) << R.Error;
  driver::LowerOptions Opts;
  Opts.Size = Size;
  auto L = driver::Lowered::lower(std::move(S), std::move(Kernels), Opts);
  EXPECT_TRUE(static_cast<bool>(L)) << L.error().toString();
  return std::move(*L);
}

std::vector<double> persistentOutputs(const driver::Lowered &L,
                                      storage::ConcreteStorage &Store) {
  std::vector<double> Out;
  for (const std::string &Name : L.Chain->arrayNames())
    if (L.Chain->array(Name).Kind == ir::StorageKind::PersistentOutput) {
      const std::vector<double> &Space = Store.spaceOf(Name);
      Out.insert(Out.end(), Space.begin(), Space.end());
    }
  return Out;
}

/// The single instruction of \p L batches, gets no row kernel for reason
/// \p Refusal, and its JIT-mode run through the ladder completes on the
/// first rung — no L008 — bit-identical to the scalar path.
void expectInterpretedWithoutDescent(driver::Lowered &L, Engine &Eng,
                                     const char *Refusal) {
  ASSERT_EQ(L.Plan.Instrs.size(), 1u);
  exec::RowAnalysis RA =
      exec::RowPlan::analyze(L.Plan.Instrs[0], L.Kernels, &Eng);
  ASSERT_TRUE(RA.Plan.has_value()) << exec::rowRefusalName(RA.Refusal);
  EXPECT_EQ(exec::jitRefusalName(RA.Jit), Refusal) << RA.JitDetail;
  EXPECT_EQ(RA.JitStmts, 0);
  EXPECT_EQ(RA.Plan->Row, nullptr);

  storage::ConcreteStorage Ref(L.SPlan, L.Env);
  L.seedStore(Ref);
  exec::RunOptions Scalar;
  Scalar.Batched = false;
  Scalar.Threads = 1;
  exec::runPlan(L.Plan, L.Kernels, Ref, Scalar);

  storage::ConcreteStorage Store(L.SPlan, L.Env);
  L.seedStore(Store);
  exec::RecoverOptions RO;
  RO.Run.Batched = true;
  RO.Run.Threads = 1;
  RO.Run.Kernels = exec::KernelMode::Jit;
  RO.Run.Jit = &Eng;
  exec::RunReport R = exec::runWithRecovery(L.Plan, L.Kernels, Store, RO);
  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_FALSE(R.Recovered) << R.toString();
  EXPECT_TRUE(R.Descents.empty()) << R.toString();
  EXPECT_EQ("jit-batched-serial", R.FinalRung);

  const std::vector<double> Expected = persistentOutputs(L, Ref);
  const std::vector<double> Got = persistentOutputs(L, Store);
  ASSERT_FALSE(Expected.empty());
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

constexpr const char *Fig1Chain =
    "#pragma omplc for domain(0:N, 0:N-1) with (x, y) "
    "write VAL_1{(x,y)} read VAL_0{(x,y)}\n"
    "S1: VAL_1(x,y) = f(VAL_0(x,y));\n"
    "#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) "
    "write VAL_2{(x,y)} read VAL_1{(x,y),(x+1,y)}\n"
    "S2: VAL_2(x,y) = g(VAL_1(x,y), VAL_1(x+1,y));\n";

} // namespace

TEST(JitRecovery, OpaqueStatementKeepsInstructionInterpretedWithoutL008) {
  Engine Eng(optsFor(freshCacheDir("opaque")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();
  // S1 carries an opaque kernel, S2 the expression-form stand-in; fused,
  // they share one instruction, which therefore has no row kernel.
  driver::Lowered L = lowerChain(
      Fig1Chain, "fusepc S1 S2\n", 9,
      [](ir::LoopChain &Chain, codegen::KernelRegistry &Kernels) {
        Chain.nest(0).KernelId = Kernels.add(opaqueScalar, opaqueBatched);
      });
  ASSERT_EQ(L.Plan.Instrs[0].Stmts.size(), 2u);
  expectInterpretedWithoutDescent(L, Eng, "no-kernel-expr");
  EXPECT_EQ(0, Eng.stats().Compiled + Eng.stats().CacheHits);
}

TEST(JitRecovery, SixtyFiveStatementsKeepInstructionInterpretedWithoutL008) {
  Engine Eng(optsFor(freshCacheDir("over64")));
  if (!Eng.available())
    GTEST_SKIP() << "no host compiler: " << Eng.unavailableReason();
  // A 65-nest pipeline A0 -> A1 -> ... -> A65, fused producer into
  // consumer into one instruction: one statement past the row kernel's
  // admission bitmask.
  std::string Text, Script, Fused = "S1";
  for (int K = 1; K <= 65; ++K) {
    const std::string S = "S" + std::to_string(K);
    const std::string W = "A" + std::to_string(K);
    const std::string R = "A" + std::to_string(K - 1);
    Text += "#pragma omplc for domain(0:N) with (x) write " + W +
            "{(x)} read " + R + "{(x)}\n" + S + ": " + W + "(x) = f(" + R +
            "(x));\n";
    if (K > 1) {
      Script += "fusepc " + Fused + " " + S + "\n";
      Fused += "+" + S;
    }
  }
  driver::Lowered L = lowerChain(Text, Script.c_str(), 16);
  ASSERT_EQ(L.Plan.Instrs[0].Stmts.size(), 65u);
  expectInterpretedWithoutDescent(L, Eng, "over-64-stmts");
  EXPECT_EQ(0, Eng.stats().Compiled + Eng.stats().CacheHits);
}

TEST(JitRecovery, EmptyInnerSpansCountNoFallback) {
  // Both fused statements range over x in [0, N-5], empty at N = 4: the
  // instruction batches but no row ever runs, so there is nothing for the
  // JIT to specialize and nothing to fall back from.
  Engine Eng(optsFor(freshCacheDir("empty")));
  driver::Lowered L = lowerChain(
      "#pragma omplc for domain(0:N-5) with (x) write B{(x)} read A{(x)}\n"
      "S1: B(x) = f(A(x));\n"
      "#pragma omplc for domain(0:N-5) with (x) write C{(x)} read B{(x)}\n"
      "S2: C(x) = f(B(x));\n",
      "fusepc S1 S2\n", 4);
  ASSERT_EQ(L.Plan.Instrs.size(), 1u);
  exec::RowAnalysis RA =
      exec::RowPlan::analyze(L.Plan.Instrs[0], L.Kernels, &Eng);
  ASSERT_TRUE(RA.Plan.has_value()) << exec::rowRefusalName(RA.Refusal);
  EXPECT_EQ(exec::jitRefusalName(RA.Jit), "no-inner-span");
  EXPECT_EQ(RA.JitStmts, 0);

  storage::ConcreteStorage Store(L.SPlan, L.Env);
  L.seedStore(Store);
  exec::RunOptions O;
  O.Batched = true;
  O.Threads = 1;
  O.Kernels = exec::KernelMode::Jit;
  O.Jit = &Eng;
  obs::Tracer::global().enable();
  exec::runPlan(L.Plan, L.Kernels, Store, O);
  obs::Trace T = obs::Tracer::global().drain();
  obs::Tracer::global().disable();
  EXPECT_EQ(1, T.counter(obs::Counter::BatchedInstrs));
  EXPECT_EQ(0, T.counter(obs::Counter::JitFallbacks));
}
