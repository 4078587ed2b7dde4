//===- tests/exec/RecoveryTest.cpp ----------------------------------------===//
//
// The fail-operational fault matrix. Every injected fault class must
// either recover through a degradation-ladder rung whose outputs are
// bit-identical to the scalar-serial oracle, or terminate with a
// structured diagnostic carrying a stable reason code — never an abort, a
// hang, or a silently wrong answer. Hardened mode must pass clean plans
// untouched and catch a seeded read-before-write through the NaN guard.
//
//===----------------------------------------------------------------------===//

#include "exec/Recovery.h"

#include "codegen/Generator.h"
#include "exec/FaultInjector.h"
#include "exec/ThreadPool.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "tiling/Tiling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// Arms the process-wide injector for one test and guarantees it is
/// disarmed afterwards even when the fault was never consumed.
struct ScopedGlobalFault {
  explicit ScopedGlobalFault(FaultSpec Spec) {
    FaultInjector::global().arm(Spec);
  }
  ~ScopedGlobalFault() { FaultInjector::global().disarm(); }
};

/// MiniFluxDiv harness, mirroring the ExecutionPlan suite: full storage,
/// deterministic seeded inputs, persistent outputs collected in extent
/// order so runs are bit-comparable.
struct Harness {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  graph::Graph G;
  storage::StoragePlan Plan;
  ParamEnv Env;

  explicit Harness(ir::LoopChain C, std::int64_t N)
      : Chain(std::move(C)), G(graph::buildGraph(Chain)),
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

  /// The scalar-serial oracle: the untransformed plan run on the lowest
  /// rung, the semantics every recovered run must reproduce exactly.
  std::vector<double> oracle() {
    storage::ConcreteStorage Store = freshStore();
    ExecutionPlan P = ExecutionPlan::fromChain(Chain, Store, Env);
    RunOptions O;
    O.Batched = false;
    O.Threads = 1;
    runPlan(P, Kernels, Store, O);
    return outputs(Store);
  }
};

void expectBitIdentical(const std::vector<double> &Expected,
                        const std::vector<double> &Got) {
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

} // namespace

TEST(Recovery, CleanRunCompletesWithoutDescents) {
  Harness S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);

  RecoverOptions Opts;
  Opts.Run.Threads = 4;
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);
  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_FALSE(R.Recovered);
  EXPECT_TRUE(R.Descents.empty()) << R.toString();
  EXPECT_EQ(R.FinalRung.rfind("batched", 0), 0u) << R.FinalRung;
  expectBitIdentical(S.oracle(), S.outputs(Store));
}

TEST(Recovery, InjectedKernelThrowDescendsOneRungBitIdentical) {
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);

  ScopedGlobalFault Fault(FaultSpec{FaultSite::Kernel, FaultKind::Throw, 1});
  RecoverOptions Opts;
  Opts.Run.Threads = 4;
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonWorkerException);
  EXPECT_NE(R.Descents[0].Detail.find("E012-fault-injected"),
            std::string::npos)
      << R.Descents[0].Detail;
  EXPECT_EQ(FaultInjector::global().firedCount(), 1u);
  expectBitIdentical(Expected, S.outputs(Store));
}

TEST(Recovery, ListSchedulerDescentStaysBitIdentical) {
  // The injected-throw row again, but with the first rung running in
  // parallel under the work-stealing list scheduler: the ladder's
  // snapshot/restore and the retry rung must reproduce the oracle bit for
  // bit even though the failing attempt ran tasks concurrently.
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);

  ScopedGlobalFault Fault(FaultSpec{FaultSite::Kernel, FaultKind::Throw, 1});
  RecoverOptions Opts;
  Opts.Run.Threads = 4;
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonWorkerException);
  expectBitIdentical(Expected, S.outputs(Store));
}

TEST(Recovery, InfeasibleBudgetWaivedViaL007) {
  // A 1-byte budget cannot admit any task: the run fails with E016, the
  // ladder waives the budget (scalar-serial, reason L007), and the
  // recovered output matches the oracle exactly.
  if (ThreadPool::effectiveThreads(2) < 2)
    GTEST_SKIP() << "serial initial runs waive the budget before the ladder";
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);

  RecoverOptions Opts;
  Opts.Run.Threads = 2;
  Opts.Run.MemBudget = 1;
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonMemBudget);
  EXPECT_NE(R.Descents[0].Detail.find("E016"), std::string::npos)
      << R.Descents[0].Detail;
  EXPECT_EQ(R.FinalRung, "batched-serial");
  expectBitIdentical(Expected, S.outputs(Store));
}

TEST(Recovery, LateKernelThrowRestoresStoreBitIdentical) {
  // A fault that fires on the LAST task of the first attempt: every
  // earlier task has already completed and published its writes into
  // persistent spaces, and mfd's Diff kernels accumulate into the live
  // output (Current + DiffScale * ...). The retry rung must start from
  // the pre-attempt store — without the snapshot/restore, the completed
  // accumulating tasks apply twice and the recovered output silently
  // diverges from the oracle.
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  ASSERT_GT(Plan.Tasks.size(), 1u);

  ScopedGlobalFault Fault(
      FaultSpec{FaultSite::Kernel, FaultKind::Throw,
                static_cast<unsigned>(Plan.Tasks.size())});
  RecoverOptions Opts;
  Opts.Run.Threads = 1; // Serial first rung: completions are deterministic.
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonWorkerException);
  EXPECT_EQ(R.FinalRung, "scalar-serial");
  EXPECT_EQ(FaultInjector::global().firedCount(), 1u);
  expectBitIdentical(Expected, S.outputs(Store));
}

TEST(Recovery, InjectedTaskFailureFallsBackFromTiledPlan) {
  // A transformed (tile-parallel) plan as the fast path, the untransformed
  // chain lowering as the fallback: a task-level fault at the lowest
  // primary rung must cross over to the fallback plan and still match the
  // oracle bit for bit.
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  tiling::ChainTiling Tiling = tiling::overlappedTiling(S.Chain, {4, 4}, S.Env);
  ExecutionPlan Tiled =
      ExecutionPlan::fromTiling(S.Chain, Tiling, Store, S.Env);

  storage::ConcreteStorage FbStore = S.freshStore();
  ExecutionPlan Fallback = ExecutionPlan::fromChain(S.Chain, FbStore, S.Env);

  ScopedGlobalFault Fault(FaultSpec{FaultSite::Task, FaultKind::Fail, 1});
  RecoverOptions Opts;
  Opts.Run.Threads = 1;
  Opts.Run.Batched = false; // Start on the lowest primary rung.
  Opts.Fallback = &Fallback;
  Opts.FallbackStore = &FbStore;
  RunReport R = runWithRecovery(Tiled, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonWorkerException);
  EXPECT_EQ(R.FinalRung, "fallback-scalar-serial");
  expectBitIdentical(Expected, S.outputs(FbStore));
}

TEST(Recovery, PersistentFailureExhaustsEveryRungWithE014) {
  // A kernel that always throws defeats every rung (the fallback runs the
  // same registry): the ladder must terminate with a structured
  // E014-exhausted report, one descent per rung, not hang or abort.
  parser::ParseResult PR = parser::parseLoopChain(R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N-1) with (x) \
    write OUT{(x)} read IN{(x)}
S1: OUT(x) = func1(IN(x));
}
)");
  ASSERT_TRUE(static_cast<bool>(PR)) << PR.Error;
  ir::LoopChain Chain = std::move(*PR.Chain);
  codegen::KernelRegistry Kernels;
  Chain.nest(0).KernelId =
      Kernels.add([](const std::vector<double> &, double) -> double {
        throw std::runtime_error("persistent kernel failure");
      });

  graph::Graph G = graph::buildGraph(Chain);
  ParamEnv Env{{"N", 8}};
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  storage::ConcreteStorage Store(SPlan, Env);
  ExecutionPlan Plan = ExecutionPlan::fromChain(Chain, Store, Env);

  storage::ConcreteStorage FbStore(SPlan, Env);
  ExecutionPlan Fallback = ExecutionPlan::fromChain(Chain, FbStore, Env);

  RecoverOptions Opts;
  Opts.Run.Threads = 4;
  Opts.Fallback = &Fallback;
  Opts.FallbackStore = &FbStore;
  RunReport R = runWithRecovery(Plan, Kernels, Store, Opts);

  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Error.code(), support::ErrorCode::Exhausted) << R.toString();
  // batched-parallel, scalar-parallel, scalar-serial, fallback.
  EXPECT_EQ(R.Descents.size(), 4u) << R.toString();
  for (const RunReport::Descent &D : R.Descents)
    EXPECT_EQ(D.Reason, ReasonWorkerException);
  EXPECT_EQ(R.FinalRung, "fallback-scalar-serial");
  EXPECT_NE(R.toJson().find("\"E014-exhausted\""), std::string::npos)
      << R.toJson();
}

namespace {

/// Figure 1, where fusion + storage reduction produces the rolling VAL_1
/// window targeted by modulo:corrupt.
constexpr const char *Fig1 = R"(
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

void seedInputs(ir::LoopChain &Chain, storage::ConcreteStorage &Store,
                const ParamEnv &Env) {
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
}

std::vector<double> collectOutputs(ir::LoopChain &Chain,
                                   storage::ConcreteStorage &Store,
                                   const ParamEnv &Env) {
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

void registerFigKernels(ir::LoopChain &Chain,
                        codegen::KernelRegistry &Kernels) {
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    double Bias = 0.125 + 0.03125 * static_cast<double>(I);
    Chain.nest(I).KernelId =
        Kernels.add([Bias](const std::vector<double> &R, double) {
          double V = Bias;
          double W = 0.25;
          for (double X : R) {
            V += W * X;
            W *= 0.75;
          }
          return V;
        });
  }
}

} // namespace

TEST(Recovery, ModuloCorruptionCaughtByStrictVerifyGate) {
  // The structural campaign: a one-element shrink of a rolling window is
  // invisible to runtime exception handling (the run would just produce
  // wrong numbers), so the strict verifier gate must catch it statically
  // and send the ladder to the fallback plan.
  parser::ParseResult PR = parser::parseLoopChain(Fig1);
  ASSERT_TRUE(static_cast<bool>(PR)) << PR.Error;
  ir::LoopChain Chain = std::move(*PR.Chain);
  codegen::KernelRegistry Kernels;
  registerFigKernels(Chain, Kernels);
  ParamEnv Env{{"N", 8}};

  // Fast path: fused, storage-reduced schedule (rolling VAL_1 window).
  graph::Graph G = graph::buildGraph(Chain);
  ASSERT_TRUE(static_cast<bool>(parser::runScript(G, "fusepc S1 S2\n")));
  storage::reduceStorage(G);
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/true);
  storage::ConcreteStorage Store(SPlan, Env);
  seedInputs(Chain, Store, Env);
  codegen::AstPtr Ast = codegen::generate(G);
  ExecutionPlan Plan = ExecutionPlan::fromAst(G, *Ast, Store, Env);

  // Fallback: the untransformed chain against full storage.
  graph::Graph G0 = graph::buildGraph(Chain);
  storage::StoragePlan FbPlan =
      storage::StoragePlan::build(G0, /*UseAllocation=*/false);
  storage::ConcreteStorage FbStore(FbPlan, Env);
  seedInputs(Chain, FbStore, Env);
  ExecutionPlan Fallback = ExecutionPlan::fromChain(Chain, FbStore, Env);

  // Oracle: the fallback schedule on the lowest rung, pristine storage.
  storage::ConcreteStorage OracleStore(FbPlan, Env);
  seedInputs(Chain, OracleStore, Env);
  {
    ExecutionPlan OraclePlan =
        ExecutionPlan::fromChain(Chain, OracleStore, Env);
    RunOptions O;
    O.Batched = false;
    runPlan(OraclePlan, Kernels, OracleStore, O);
  }
  std::vector<double> Expected = collectOutputs(Chain, OracleStore, Env);

  ScopedGlobalFault Fault(FaultSpec{FaultSite::Modulo, FaultKind::Corrupt, 1});
  RecoverOptions Opts;
  Opts.StrictVerify = true;
  Opts.Fallback = &Fallback;
  Opts.FallbackStore = &FbStore;
  RunReport R = runWithRecovery(Plan, Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_FALSE(R.Descents.empty());
  EXPECT_EQ(R.Descents[0].Reason, ReasonVerifierError) << R.toString();
  EXPECT_EQ(R.FinalRung, "fallback-scalar-serial");
  expectBitIdentical(Expected, collectOutputs(Chain, FbStore, Env));
  // The caller's plan object stays pristine: corruption lives on a copy.
  bool AnyShrunk = false;
  for (const NestInstr &I : Plan.Instrs)
    for (const StmtRecord &St : I.Stmts) {
      if (St.Write.Modulo && St.Write.ModSize <= 1)
        AnyShrunk = true;
    }
  EXPECT_FALSE(AnyShrunk);
}

TEST(Recovery, TruncatedInputTerminatesStructurally) {
  // input:truncate halves a persistent backing space under the plan's
  // feet. Every rung (including a fallback sharing the same store) must be
  // refused deterministically by plan-vs-storage validation — a structured
  // E014 report, not an out-of-bounds read.
  Harness S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  ExecutionPlan Fallback = Plan; // Shares the (truncated) primary store.

  ScopedGlobalFault Fault(FaultSpec{FaultSite::Input, FaultKind::Truncate, 1});
  RecoverOptions Opts;
  Opts.Run.Threads = 2;
  Opts.Fallback = &Fallback;
  RunReport R = runWithRecovery(Plan, S.Kernels, Store, Opts);

  EXPECT_FALSE(R.Completed) << R.toString();
  EXPECT_EQ(R.Error.code(), support::ErrorCode::Exhausted);
  ASSERT_EQ(R.Descents.size(), 2u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonPlanInvalid);
  EXPECT_EQ(R.Descents[1].Reason, ReasonPlanInvalid);
  EXPECT_NE(R.Error.toString().find("E008-plan-invalid"), std::string::npos)
      << R.Error.toString();
  EXPECT_NE(R.toJson().find("L006-plan-invalid"), std::string::npos);
}

TEST(Recovery, HardenedModePassesCleanPlans) {
  // The guardrails must be invisible on legal schedules: canaries intact,
  // no NaN in any persistent space, and the published outputs bit-equal to
  // an unhardened run — untiled serial, untiled parallel, and
  // tile-parallel with privatized temporaries.
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  for (int Threads : {1, 4}) {
    storage::ConcreteStorage Store = S.freshStore();
    ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);
    RunOptions O;
    O.Threads = Threads;
    O.Harden = true;
    runPlan(Plan, S.Kernels, Store, O);
    expectBitIdentical(Expected, S.outputs(Store));
  }
  {
    storage::ConcreteStorage Store = S.freshStore();
    tiling::ChainTiling Tiling =
        tiling::overlappedTiling(S.Chain, {4, 4}, S.Env);
    ExecutionPlan Tiled =
        ExecutionPlan::fromTiling(S.Chain, Tiling, Store, S.Env);
    RunOptions O;
    O.Threads = 2;
    O.Harden = true;
    runPlan(Tiled, S.Kernels, Store, O);
    expectBitIdentical(Expected, S.outputs(Store));
  }
}

TEST(Recovery, NanGuardCatchesReadBeforeWrite) {
  // Reversing the task order of a chain plan runs consumers before their
  // producers; the scheduled reads hit NaN-poisoned temporaries and the
  // poison must surface as E013 instead of leaking stale zeros into the
  // outputs — and the store must be left untouched.
  Harness S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  ASSERT_GT(Plan.Tasks.size(), 1u);
  std::reverse(Plan.Tasks.begin(), Plan.Tasks.end());

  std::vector<double> Before = S.outputs(Store);
  RunOptions O;
  O.Batched = false;
  O.Harden = true;
  try {
    runPlan(Plan, S.Kernels, Store, O);
    FAIL() << "NaN guard did not trip";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::GuardTripped);
    EXPECT_NE(E.status().message().find("NaN"), std::string::npos)
        << E.status().toString();
  }
  expectBitIdentical(Before, S.outputs(Store));
}

TEST(Recovery, NanGuardDescendsToFallbackPlan) {
  // The same read-before-write plan under the ladder: L005 descent, then
  // the fallback plan completes hardened and bit-identical to the oracle.
  Harness S(mfd::buildChain2D(), 8);
  std::vector<double> Expected = S.oracle();

  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Broken = ExecutionPlan::fromChain(S.Chain, Store, S.Env);
  std::reverse(Broken.Tasks.begin(), Broken.Tasks.end());

  storage::ConcreteStorage FbStore = S.freshStore();
  ExecutionPlan Fallback = ExecutionPlan::fromChain(S.Chain, FbStore, S.Env);

  RecoverOptions Opts;
  Opts.Run.Batched = false;
  Opts.Run.Harden = true;
  Opts.Fallback = &Fallback;
  Opts.FallbackStore = &FbStore;
  RunReport R = runWithRecovery(Broken, S.Kernels, Store, Opts);

  EXPECT_TRUE(R.Completed) << R.toString();
  EXPECT_TRUE(R.Recovered);
  ASSERT_EQ(R.Descents.size(), 1u) << R.toString();
  EXPECT_EQ(R.Descents[0].Reason, ReasonNanGuard);
  EXPECT_EQ(R.FinalRung, "fallback-scalar-serial");
  expectBitIdentical(Expected, S.outputs(FbStore));
}
