//===- tests/exec/RowPlanTest.cpp -----------------------------------------===//
//
// The row-batching compilation stage. Two layers of coverage:
// (a) hand-built single-nest plans stress the segment walker directly —
//     modulo rows crossing the wrap boundary one or more times, negative
//     pre-wrap bases, stride-0 broadcast reads, guard sub-ranges — against
//     a scalar reference that mirrors the runner's interpreter; and
// (b) whole schedules (untiled chain, fused+reduced AST, overlapped
//     tilings) run through runPlan with batching on and off must produce
//     bit-identical storage at thread counts 1, 2, 4.
//
//===----------------------------------------------------------------------===//

#include "exec/RowPlan.h"

#include "codegen/Generator.h"
#include "exec/PlanRunner.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built plans vs a scalar mirror of the interpreter.
//===----------------------------------------------------------------------===//

/// Sum of reads accumulating into the target, as one kernel definition
/// (KernelRegistry::define): a left fold over the target and the reads.
constexpr auto Sum = [](auto... Operands) { return (... + Operands); };

/// Mirrors PlanRunner's scalar interpretation of one instruction: guards,
/// per-point dot product, floored modulo wrap, kernel call per admitted
/// statement instance.
void scalarReference(const NestInstr &I,
                     const codegen::KernelRegistry &Kernels,
                     double *const *Spaces) {
  const int L = static_cast<int>(I.Loops.size());
  std::vector<std::int64_t> Iter(L);
  for (int Lv = 0; Lv < L; ++Lv) {
    if (I.Loops[Lv].Lo > I.Loops[Lv].Hi)
      return;
    Iter[Lv] = I.Loops[Lv].Lo;
  }
  std::vector<double> Reads;
  for (;;) {
    for (const StmtRecord &S : I.Stmts) {
      bool Admit = true;
      for (const GuardBound &Gd : S.Guards)
        if (Iter[Gd.Level] < Gd.Lo || Iter[Gd.Level] > Gd.Hi) {
          Admit = false;
          break;
        }
      if (!Admit)
        continue;
      Reads.clear();
      for (const Stream &R : S.Reads) {
        std::int64_t Lin = R.Base;
        for (int Lv = 0; Lv < L; ++Lv)
          Lin += Iter[Lv] * R.LevelStrides[Lv];
        if (R.Modulo) {
          Lin %= R.ModSize;
          if (Lin < 0)
            Lin += R.ModSize;
        }
        Reads.push_back(Spaces[R.Space][Lin]);
      }
      std::int64_t Lin = S.Write.Base;
      for (int Lv = 0; Lv < L; ++Lv)
        Lin += Iter[Lv] * S.Write.LevelStrides[Lv];
      if (S.Write.Modulo) {
        Lin %= S.Write.ModSize;
        if (Lin < 0)
          Lin += S.Write.ModSize;
      }
      double &Target = Spaces[S.Write.Space][Lin];
      Target = Kernels.get(S.KernelId)(Reads, Target);
    }
    int Lv = L - 1;
    for (; Lv >= 0; --Lv) {
      if (++Iter[Lv] <= I.Loops[Lv].Hi)
        break;
      Iter[Lv] = I.Loops[Lv].Lo;
    }
    if (Lv < 0)
      return;
  }
}

/// Two space tables over identical deterministic contents; runs the
/// scalar mirror on one and the compiled RowPlan on the other and
/// requires bit-identical buffers plus exact instance/load counts.
struct MicroHarness {
  codegen::KernelRegistry Kernels;
  std::vector<std::vector<double>> A, B;

  MicroHarness() {
    Kernels.define<1, /*Accumulates=*/true>(Sum); // kernel 0: one read
    Kernels.define<2, /*Accumulates=*/true>(Sum); // kernel 1: two reads
  }

  void addSpace(std::size_t Size) {
    std::vector<double> Buf(Size);
    for (std::size_t I = 0; I < Size; ++I)
      Buf[I] = 0.25 + 0.001 * static_cast<double>((I * 2654435761u) % 977u);
    A.push_back(Buf);
    B.push_back(std::move(Buf));
  }

  void check(const NestInstr &I, std::int64_t ExpectPoints,
             std::int64_t ExpectReads) {
    std::vector<double *> TA, TB;
    for (std::size_t S = 0; S < A.size(); ++S) {
      TA.push_back(A[S].data());
      TB.push_back(B[S].data());
    }
    std::optional<RowPlan> RP = RowPlan::analyze(I, Kernels).Plan;
    ASSERT_TRUE(RP.has_value());
    std::int64_t Points = 0, RawReads = 0;
    RP->run(TA.data(), Points, RawReads);
    scalarReference(I, Kernels, TB.data());
    EXPECT_EQ(Points, ExpectPoints);
    EXPECT_EQ(RawReads, ExpectReads);
    for (std::size_t S = 0; S < A.size(); ++S)
      for (std::size_t E = 0; E < A[S].size(); ++E)
        EXPECT_EQ(A[S][E], B[S][E]) << "space " << S << " element " << E;
  }
};

Stream directStream(unsigned Space, std::int64_t Base,
                    std::vector<std::int64_t> Strides) {
  Stream S;
  S.Space = Space;
  S.Base = Base;
  S.LevelStrides = std::move(Strides);
  return S;
}

Stream moduloStream(unsigned Space, std::int64_t ModSize, std::int64_t Base,
                    std::vector<std::int64_t> Strides) {
  Stream S = directStream(Space, Base, std::move(Strides));
  S.Modulo = true;
  S.ModSize = ModSize;
  return S;
}

} // namespace

TEST(RowPlanMicro, ModuloReadCrossesWrapSeveralTimesPerRow) {
  // Rows of 17 elements over a 5-element modulo buffer: every row crosses
  // the wrap boundary three or four times, at a row-dependent phase
  // (outer stride 7 is coprime to 5).
  MicroHarness H;
  H.addSpace(6 * 17); // space 0: direct write
  H.addSpace(5);      // space 1: modulo read
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 5}, LoopLevel{"x", 0, 16}};
  StmtRecord S;
  S.KernelId = 0;
  S.Write = directStream(0, 0, {17, 1});
  S.Reads = {moduloStream(1, 5, 0, {7, 1})};
  I.Stmts.push_back(S);
  H.check(I, 6 * 17, 6 * 17);
}

TEST(RowPlanMicro, NegativeBaseWrapsFloored) {
  // Pre-wrap indices start negative (base -11) and climb through zero;
  // the floored wrap must agree with the interpreter at every point.
  MicroHarness H;
  H.addSpace(4 * 9);
  H.addSpace(7);
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 3}, LoopLevel{"x", 0, 8}};
  StmtRecord S;
  S.KernelId = 0;
  S.Write = directStream(0, 0, {9, 1});
  S.Reads = {moduloStream(1, 7, -11, {3, 1})};
  I.Stmts.push_back(S);
  H.check(I, 4 * 9, 4 * 9);
}

TEST(RowPlanMicro, ModuloWriteCrossesWrap) {
  // The write stream is the modulo one; segments split on its wraps and
  // later writes overwrite earlier ones exactly as the interpreter does.
  MicroHarness H;
  H.addSpace(3);      // space 0: modulo write, ModSize 3
  H.addSpace(2 * 11); // space 1: direct read
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 1}, LoopLevel{"x", 0, 10}};
  StmtRecord S;
  S.KernelId = 0;
  S.Write = moduloStream(0, 3, 1, {5, 1});
  S.Reads = {directStream(1, 0, {11, 1})};
  I.Stmts.push_back(S);
  H.check(I, 2 * 11, 2 * 11);
}

TEST(RowPlanMicro, BroadcastStrideZeroRead) {
  // Second operand has inner stride 0: one value broadcast over the row,
  // advanced only by the outer level. Distinct bases keep the pair safe.
  MicroHarness H;
  H.addSpace(5 * 13);
  H.addSpace(5 * 13);
  H.addSpace(8);
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 4}, LoopLevel{"x", 0, 12}};
  StmtRecord S;
  S.KernelId = 1;
  S.Write = directStream(0, 0, {13, 1});
  S.Reads = {directStream(1, 0, {13, 1}), directStream(2, 0, {1, 0})};
  I.Stmts.push_back(S);
  H.check(I, 5 * 13, 2 * 5 * 13);
}

TEST(RowPlanMicro, GuardsClampInnerRangeAndAdmitRows) {
  // Statement 1 runs everywhere; statement 2 only on rows 1..2 and inner
  // positions 3..7. Disjoint spaces keep the interleaving trivially safe.
  MicroHarness H;
  H.addSpace(4 * 10);
  H.addSpace(4 * 10);
  H.addSpace(4 * 10);
  H.addSpace(4 * 10);
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 3}, LoopLevel{"x", 0, 9}};
  StmtRecord S1;
  S1.KernelId = 0;
  S1.Write = directStream(0, 0, {10, 1});
  S1.Reads = {directStream(1, 0, {10, 1})};
  I.Stmts.push_back(S1);
  StmtRecord S2;
  S2.KernelId = 0;
  S2.Guards = {GuardBound{0, 1, 2}, GuardBound{1, 3, 7}};
  S2.Write = directStream(2, 0, {10, 1});
  S2.Reads = {directStream(3, 0, {10, 1})};
  I.Stmts.push_back(S2);
  H.check(I, 4 * 10 + 2 * 5, 4 * 10 + 2 * 5);
}

TEST(RowPlanMicro, FusedProducerConsumerThroughModuloBufferIsSafe) {
  // The fused-reduced shape: statement 1 writes a ModSize-2 carry buffer,
  // statement 2 reads it at offsets 0 and -1 (bases 0 and -1). The
  // reorder-safety rule (c <= 0, 2|c| <= M) admits it, and segments of
  // length <= the wrap distance keep execution bit-identical.
  MicroHarness H;
  H.addSpace(2);      // space 0: modulo carry buffer
  H.addSpace(3 * 12); // space 1: statement 1 input
  H.addSpace(3 * 12); // space 2: final output
  NestInstr I;
  I.Loops = {LoopLevel{"r", 0, 2}, LoopLevel{"x", 0, 11}};
  StmtRecord P;
  P.KernelId = 0;
  P.Write = moduloStream(0, 2, 0, {0, 1});
  P.Reads = {directStream(1, 0, {12, 1})};
  I.Stmts.push_back(P);
  StmtRecord C;
  C.KernelId = 1;
  C.Guards = {GuardBound{1, 1, 11}};
  C.Write = directStream(2, 0, {12, 1});
  C.Reads = {moduloStream(0, 2, -1, {0, 1}), moduloStream(0, 2, 0, {0, 1})};
  I.Stmts.push_back(C);
  H.check(I, 3 * 12 + 3 * 11, 3 * 12 + 2 * 3 * 11);
}

TEST(RowPlanMicro, ForwardConflictAtDistanceTwoCapsSegments) {
  // Statement 2 reads what statement 1 writes two positions AHEAD
  // (c = +2): the consumer must see the pre-update value, so batching is
  // legal only in segments of at most the collision distance. analyze()
  // must cap MaxSegment at 2 and the capped walk must stay bit-identical.
  MicroHarness H;
  H.addSpace(16); // space 0: producer target / consumer source
  H.addSpace(16); // space 1: producer input
  H.addSpace(16); // space 2: consumer output
  NestInstr I;
  I.Loops = {LoopLevel{"x", 0, 11}};
  StmtRecord P;
  P.KernelId = 0;
  P.Write = directStream(0, 0, {1});
  P.Reads = {directStream(1, 0, {1})};
  I.Stmts.push_back(P);
  StmtRecord C;
  C.KernelId = 0;
  C.Write = directStream(2, 0, {1});
  C.Reads = {directStream(0, 2, {1})};
  I.Stmts.push_back(C);
  std::optional<RowPlan> RP = RowPlan::analyze(I, H.Kernels).Plan;
  ASSERT_TRUE(RP.has_value());
  EXPECT_EQ(RP->MaxSegment, 2);
  H.check(I, 2 * 12, 2 * 12);
}

TEST(RowPlanCompile, RefusesScalarOnlyKernels) {
  codegen::KernelRegistry Kernels;
  int ScalarOnly = Kernels.add(
      [](const std::vector<double> &Reads, double W) { return W + Reads[0]; });
  NestInstr I;
  I.Loops = {LoopLevel{"x", 0, 7}};
  StmtRecord S;
  S.KernelId = ScalarOnly;
  S.Write = directStream(0, 0, {1});
  S.Reads = {directStream(1, 0, {1})};
  I.Stmts.push_back(S);
  RowAnalysis RA = RowPlan::analyze(I, Kernels);
  EXPECT_FALSE(RA.Plan.has_value());
  EXPECT_EQ(RA.Refusal, RowRefusal::NoBatchedKernel);
}

TEST(RowPlanCompile, RefusesForwardDependentInterleaving) {
  // Statement 2 reads what statement 1 writes one position AHEAD
  // (c = +1, divisible by the stride): batching statement 1 over a
  // segment would let the consumer observe values the interpreter has
  // not produced yet in its order — must fall back to scalar.
  codegen::KernelRegistry Kernels;
  Kernels.define<1, /*Accumulates=*/true>(Sum);
  NestInstr I;
  I.Loops = {LoopLevel{"x", 0, 7}};
  StmtRecord P;
  P.KernelId = 0;
  P.Write = directStream(0, 0, {1});
  P.Reads = {directStream(1, 0, {1})};
  I.Stmts.push_back(P);
  StmtRecord C;
  C.KernelId = 0;
  C.Write = directStream(2, 0, {1});
  C.Reads = {directStream(0, 1, {1})};
  I.Stmts.push_back(C);
  RowAnalysis RA = RowPlan::analyze(I, Kernels);
  EXPECT_FALSE(RA.Plan.has_value());
  EXPECT_EQ(RA.Refusal, RowRefusal::UnsafeInterleave);
}

TEST(RowPlanCompile, RefusesExternalAndLooplessInstructions) {
  codegen::KernelRegistry Kernels;
  NestInstr External;
  External.External = [](int) {};
  RowAnalysis RA = RowPlan::analyze(External, Kernels);
  EXPECT_FALSE(RA.Plan.has_value());
  EXPECT_EQ(RA.Refusal, RowRefusal::External);
  NestInstr Loopless; // no loop levels, no statements
  RA = RowPlan::analyze(Loopless, Kernels);
  EXPECT_FALSE(RA.Plan.has_value());
  EXPECT_EQ(RA.Refusal, RowRefusal::NoLoops);
}

//===----------------------------------------------------------------------===//
// Whole schedules: batched vs scalar through runPlan.
//===----------------------------------------------------------------------===//

namespace {

/// One MiniFluxDiv schedule under test: the (possibly transformed) chain,
/// its kernel registry (registerKernels now installs batched bodies), the
/// storage plan of the schedule, and the parameter binding.
struct Sched {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  graph::Graph G;
  ParamEnv Env;

  /// Applies recipe -1 = none, 0 = fuse-among, 1 = fuse-within,
  /// 2 = fuse-all, optionally followed by storage reduction. \p Widen
  /// multiplies the modulo windows of the storage plan (see
  /// StoragePlan::build).
  Sched(ir::LoopChain C, std::int64_t N, int Recipe = -1,
        bool Reduce = false, unsigned Widen = 1)
      : Chain(std::move(C)), G(graph::buildGraph(Chain)), Env{{"N", N}} {
    mfd::registerKernels(Chain, Kernels);
    switch (Recipe) {
    case 0:
      mfd::applyFuseAmongDirections(G);
      break;
    case 1:
      mfd::applyFuseWithinDirections(G);
      break;
    case 2:
      mfd::applyFuseAllLevels(G);
      break;
    default:
      break;
    }
    if (Reduce)
      storage::reduceStorage(G);
    SPlan.emplace(
        storage::StoragePlan::build(G, /*UseAllocation=*/false, Widen));
  }

  std::optional<storage::StoragePlan> SPlan;

  storage::ConcreteStorage freshStore() {
    storage::ConcreteStorage Store(*SPlan, Env);
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
};

void expectBitIdentical(const std::vector<double> &Expected,
                        const std::vector<double> &Got) {
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

/// Runs \p Plan twice per thread count — batching off (the scalar oracle)
/// and on — and requires bit-identical persistent outputs plus the same
/// number of executed statement instances.
void checkBatchedMatchesScalar(Sched &S, const ExecutionPlan &Plan) {
  for (int Threads : {1, 2, 4}) {
    RunOptions Off;
    Off.Threads = Threads;
    Off.Batched = false;
    storage::ConcreteStorage RefStore = S.freshStore();
    PlanStats RefStats = runPlan(Plan, S.Kernels, RefStore, Off);
    std::vector<double> Expected = S.outputs(RefStore);

    RunOptions On;
    On.Threads = Threads;
    On.Batched = true;
    storage::ConcreteStorage Store = S.freshStore();
    PlanStats Stats = runPlan(Plan, S.Kernels, Store, On);
    expectBitIdentical(Expected, S.outputs(Store));

    // JIT leg of the same sweep: specialized kernels must stay bitwise on
    // the scalar oracle too. Best-effort by contract — on a machine with
    // no host compiler every statement silently keeps its interpreted
    // body, and the comparison still holds.
    RunOptions Jit = On;
    Jit.Kernels = KernelMode::Jit;
    storage::ConcreteStorage JitStore = S.freshStore();
    runPlan(Plan, S.Kernels, JitStore, Jit);
    expectBitIdentical(Expected, S.outputs(JitStore));

    std::int64_t RefPoints = 0, Points = 0;
    for (const PlanStats::NodeStat &N : RefStats.Nodes)
      RefPoints += N.Points;
    for (const PlanStats::NodeStat &N : Stats.Nodes)
      Points += N.Points;
    EXPECT_EQ(RefPoints, Points) << "threads " << Threads;
  }
}

} // namespace

TEST(RowPlanSchedules, UntiledChain2D) {
  Sched S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Probe, S.Env, &S.G);
  checkBatchedMatchesScalar(S, Plan);
}

TEST(RowPlanSchedules, UntiledChain3D) {
  Sched S(mfd::buildChain3D(), 4);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Probe, S.Env, &S.G);
  checkBatchedMatchesScalar(S, Plan);
}

using RecipeAndReduce = std::tuple<int, bool>;

class FusedAstSchedule
    : public ::testing::TestWithParam<RecipeAndReduce> {};

TEST_P(FusedAstSchedule, BatchedMatchesScalarBitwise) {
  auto [Recipe, Reduce] = GetParam();
  // The series schedule is the cross-check oracle for the scalar path
  // elsewhere (InterpreterTest); the property under test here is
  // batched == scalar on the same transformed plan.
  Sched S(mfd::buildChain2D(), 7, Recipe, Reduce);
  codegen::AstPtr Ast = codegen::generate(S.G);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromAst(S.G, *Ast, Probe, S.Env);
  checkBatchedMatchesScalar(S, Plan);
}

static std::string
fusedAstName(const ::testing::TestParamInfo<RecipeAndReduce> &Info) {
  static const char *Names[] = {"fuseAmong", "fuseWithin", "fuseAll"};
  return std::string(Names[std::get<0>(Info.param)]) +
         (std::get<1>(Info.param) ? "_reduced" : "_sa");
}

INSTANTIATE_TEST_SUITE_P(
    RecipesAndStorage, FusedAstSchedule,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(false, true)),
    fusedAstName);

TEST(RowPlanSchedules, FuseAllReducedWidenedWindows2D) {
  // Widened modulo windows (M >= 2x every producer/consumer lag) lift
  // the per-pair segment caps of the reduced fuse-all schedule; the
  // unbounded batched walk must still match the scalar oracle bitwise.
  Sched S(mfd::buildChain2D(), 9, /*Recipe=*/2, /*Reduce=*/true,
          /*Widen=*/2);
  codegen::AstPtr Ast = codegen::generate(S.G);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromAst(S.G, *Ast, Probe, S.Env);
  checkBatchedMatchesScalar(S, Plan);
}

TEST(RowPlanSchedules, FuseAllReducedWidenedWindows3D) {
  // The bench configuration: 3D fuse-all with reduced storage widened 8x.
  Sched S(mfd::buildChain3D(), 5, /*Recipe=*/2, /*Reduce=*/true,
          /*Widen=*/8);
  codegen::AstPtr Ast = codegen::generate(S.G);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromAst(S.G, *Ast, Probe, S.Env);
  checkBatchedMatchesScalar(S, Plan);
}

class TiledSchedule : public ::testing::TestWithParam<int> {};

TEST_P(TiledSchedule, BatchedMatchesScalarBitwise2D) {
  int T = GetParam();
  Sched S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Probe = S.freshStore();
  tiling::ChainTiling Tiling =
      tiling::overlappedTiling(S.Chain, {T, T}, S.Env);
  ExecutionPlan Plan =
      ExecutionPlan::fromTiling(S.Chain, Tiling, Probe, S.Env, &S.G);
  checkBatchedMatchesScalar(S, Plan);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TiledSchedule,
                         ::testing::Values(2, 3, 4));

TEST(RowPlanSchedules, TiledChain3D) {
  Sched S(mfd::buildChain3D(), 4);
  storage::ConcreteStorage Probe = S.freshStore();
  tiling::ChainTiling Tiling =
      tiling::overlappedTiling(S.Chain, {2, 2, 0}, S.Env);
  ExecutionPlan Plan =
      ExecutionPlan::fromTiling(S.Chain, Tiling, Probe, S.Env, &S.G);
  checkBatchedMatchesScalar(S, Plan);
}

TEST(RowPlanStats, SerializationForStatsIsSurfaced) {
  Sched S(mfd::buildChain2D(), 4);
  storage::ConcreteStorage Probe = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Probe, S.Env, &S.G);
  RunOptions Opts;
  Opts.Threads = 4;
  Opts.CollectStats = true;
  storage::ConcreteStorage Store = S.freshStore();
  PlanStats Stats = runPlan(Plan, S.Kernels, Store, Opts);
  EXPECT_TRUE(Stats.SerializedForStats);
  EXPECT_EQ(Stats.ThreadsUsed, 1);
  EXPECT_NE(Stats.toString().find("serialized for stats"), std::string::npos);

  // A plain run does not claim serialization.
  storage::ConcreteStorage Store2 = S.freshStore();
  RunOptions Plain;
  Plain.Threads = 2;
  PlanStats PlainStats = runPlan(Plan, S.Kernels, Store2, Plain);
  EXPECT_FALSE(PlainStats.SerializedForStats);
  EXPECT_EQ(PlainStats.toString().find("serialized"), std::string::npos);
}
