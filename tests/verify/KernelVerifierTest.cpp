//===- tests/verify/KernelVerifierTest.cpp --------------------------------===//
//
// The JIT translation validator, tested the only way a verifier can be:
// by mutation. Clean emissions of hand-built row plans (and of the full
// Figure 1 lowering) must come out spotless, and each seeded corruption —
// an off-by-one stride, a dropped wrap split, a simd pragma on an aliased
// pair, a cap widened past the proven collision distance, a reassociated
// FP sum — must be rejected with exactly one diagnostic carrying its
// documented K code and a concrete witness.
//
//===----------------------------------------------------------------------===//

#include "verify/KernelVerifier.h"

#include "codegen/CPrinter.h"
#include "codegen/Generator.h"
#include "driver/Lowering.h"
#include "exec/FaultInjector.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "parser/PragmaParser.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::verify;

namespace {

exec::Stream stream(unsigned Space, std::int64_t Base,
                    std::vector<std::int64_t> Strides, std::int64_t Mod = 0) {
  exec::Stream S;
  S.Space = Space;
  S.Base = Base;
  S.LevelStrides = std::move(Strides);
  if (Mod > 0) {
    S.Modulo = true;
    S.ModSize = Mod;
  }
  return S;
}

/// One hand-built nest: outer i in [0, OuterHi], inner x in [0, 7].
exec::NestInstr makeInstr(std::int64_t OuterHi = 1) {
  exec::NestInstr I;
  I.Label = "fixture";
  I.Loops.push_back({"i", 0, OuterHi});
  I.Loops.push_back({"x", 0, 7});
  return I;
}

const Diagnostic *findCheck(const Diagnostics &D, const char *Check) {
  for (const Diagnostic &Diag : D.all())
    if (Diag.CheckId == Check)
      return &Diag;
  return nullptr;
}

/// Fixture A: one statement, direct write (space 0) and direct stride-2
/// read (space 1). The simplest shape where a stride lie becomes an
/// address lie at the second element.
exec::NestInstr directStrideInstr(codegen::KernelRegistry &Kernels) {
  exec::NestInstr I = makeInstr();
  exec::StmtRecord S;
  S.KernelId = Kernels.define<1, /*Accumulates=*/true>(
      [](auto W, auto R0) { return W + R0; });
  S.Write = stream(0, 0, {8, 1});
  S.Reads = {stream(1, 0, {16, 2})};
  I.Stmts.push_back(std::move(S));
  return I;
}

/// Fixture B: one statement whose read walks a 3-element modulo window,
/// so the truth walker splits every row at the wrap boundaries.
exec::NestInstr moduloReadInstr(codegen::KernelRegistry &Kernels) {
  exec::NestInstr I = makeInstr();
  exec::StmtRecord S;
  S.KernelId = Kernels.define<1, /*Accumulates=*/true>(
      [](auto W, auto R0) { return W + R0; });
  S.Write = stream(0, 0, {8, 1});
  S.Reads = {stream(1, 0, {0, 1}, /*Mod=*/3)};
  I.Stmts.push_back(std::move(S));
  return I;
}

/// Fixture C: a self-stencil — the read walks the written space one
/// element ahead, a loop-carried dependence that forbids simd/restrict.
exec::NestInstr aliasedInstr(codegen::KernelRegistry &Kernels) {
  exec::NestInstr I = makeInstr();
  exec::StmtRecord S;
  S.KernelId = Kernels.define<1>([](auto R0) { return R0; });
  S.Write = stream(0, 0, {8, 1});
  S.Reads = {stream(0, 1, {8, 1})};
  I.Stmts.push_back(std::move(S));
  return I;
}

/// Fixture D: two statements over a shared 8-element modulo space whose
/// bases sit 2 apart — the collision-distance proof caps segments at 2.
exec::NestInstr cappedPairInstr(codegen::KernelRegistry &Kernels) {
  exec::NestInstr I = makeInstr(/*OuterHi=*/0);
  exec::StmtRecord A;
  A.KernelId = Kernels.define<0>([] { return 1.0; });
  A.Write = stream(1, 0, {0, 1}, /*Mod=*/8);
  I.Stmts.push_back(std::move(A));
  exec::StmtRecord B;
  B.KernelId = Kernels.define<1>([](auto R0) { return R0; });
  B.Write = stream(0, 0, {8, 1});
  B.Reads = {stream(1, 2, {0, 1}, /*Mod=*/8)};
  I.Stmts.push_back(std::move(B));
  return I;
}

/// Fixture E: a three-operand sum whose registered tree fixes the FP
/// evaluation order as (R0 + R1) + R2.
exec::NestInstr sumTreeInstr(codegen::KernelRegistry &Kernels) {
  exec::NestInstr I = makeInstr();
  exec::StmtRecord S;
  S.KernelId = Kernels.define<3>(
      [](auto R0, auto R1, auto R2) { return R0 + R1 + R2; });
  S.Write = stream(0, 0, {8, 1});
  S.Reads = {stream(1, 0, {8, 1}), stream(2, 0, {8, 1}),
             stream(3, 0, {8, 1})};
  I.Stmts.push_back(std::move(S));
  return I;
}

struct Lowered {
  exec::RowAnalysis RA;
  std::optional<codegen::RowKernelDesc> Desc;
};

Lowered lower(const exec::NestInstr &I,
              const codegen::KernelRegistry &Kernels) {
  Lowered L;
  L.RA = exec::RowPlan::analyze(I, Kernels);
  EXPECT_TRUE(L.RA.Plan.has_value())
      << "refusal: " << exec::rowRefusalName(L.RA.Refusal);
  if (L.RA.Plan)
    L.Desc = exec::rowKernelDesc(*L.RA.Plan, I, Kernels);
  EXPECT_TRUE(L.Desc.has_value());
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clean emissions are spotless.
//===----------------------------------------------------------------------===//

TEST(KernelVerifier, CleanRowEmissionsAreSpotless) {
  using Builder = exec::NestInstr (*)(codegen::KernelRegistry &);
  const Builder Builders[] = {directStrideInstr, moduloReadInstr,
                              aliasedInstr, cappedPairInstr, sumTreeInstr};
  for (Builder B : Builders) {
    codegen::KernelRegistry Kernels;
    const exec::NestInstr I = B(Kernels);
    Lowered L = lower(I, Kernels);
    ASSERT_TRUE(L.Desc);
    KernelVerifier V(I, *L.RA.Plan, Kernels);
    Diagnostics D;
    V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
    EXPECT_TRUE(D.all().empty()) << D.toString();
  }
}

//===----------------------------------------------------------------------===//
// The row-kernel mutations: exactly one K code each, with witness.
//===----------------------------------------------------------------------===//

TEST(KernelVerifier, OffByOneStrideIsFootprintMismatch) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = directStrideInstr(Kernels);
  Lowered L = lower(I, Kernels);
  L.Desc->Stmts[0].Reads[0].InnerStride = 3; // truth stride is 2
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelFootprint);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
  EXPECT_EQ(E->Space, 1);
  // First divergent iteration point: row i=0, second element of the chunk.
  EXPECT_EQ(E->Point, (std::vector<std::int64_t>{0, 1}));
}

TEST(KernelVerifier, DroppedWrapSplitIsChunkDivergence) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = moduloReadInstr(Kernels);
  Lowered L = lower(I, Kernels);
  L.Desc->Stmts[0].Reads[0].Modulo = false; // drop the 3-element window
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelChunkDivergence);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
  // The emitted walker runs the whole 8-element row; the interpreted one
  // splits after 3 at the first wrap. Witness: start of the first chunk.
  EXPECT_NE(E->Message.find("splits after 3"), std::string::npos)
      << E->Message;
  EXPECT_EQ(E->Point, (std::vector<std::int64_t>{0, 0}));
}

TEST(KernelVerifier, SimdOnAliasedPairIsRejected) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = aliasedInstr(Kernels);
  Lowered L = lower(I, Kernels);
  L.Desc->Stmts[0].Reads[0].AliasesWrite = false; // forges simd + restrict
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  // Exactly one: the restrict claim on the same pair is suppressed — one
  // root cause, one diagnostic.
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelSimdUnsafe);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
  EXPECT_EQ(E->Space, 0);
}

TEST(KernelVerifier, WidenedCapIsRejectedWithCollisionWitness) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = cappedPairInstr(Kernels);
  Lowered L = lower(I, Kernels);
  ASSERT_EQ(L.RA.Plan->MaxSegment, 2); // the proven collision distance
  L.Desc->MaxSegment = 8;              // widen past the proof
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelCapWidened);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
  EXPECT_EQ(E->Space, 1);
  // The reordered pair: statement 1's read of wrapped slot 2 at x=0 moves
  // before statement 0's write of the same slot at x=2.
  EXPECT_EQ(E->Point, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(E->OtherPoint, (std::vector<std::int64_t>{0, 2}));
}

TEST(KernelVerifier, ReassociatedSumIsRejected) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = sumTreeInstr(Kernels);
  Lowered L = lower(I, Kernels);
  // The registered tree is (R0 + R1) + R2; hand the printer the other
  // association, as a buggy emission path would.
  const codegen::KernelExpr Reassoc =
      codegen::read(0) + (codegen::read(1) + codegen::read(2));
  L.Desc->Stmts[0].Body = &Reassoc;
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelFpReassociation);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
  EXPECT_NE(E->Message.find("(R0 + (R1 + R2))"), std::string::npos)
      << E->Message;
}

TEST(KernelVerifier, TamperedRestrictIsAliasUnsound) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = aliasedInstr(Kernels);
  Lowered L = lower(I, Kernels);
  std::string Text = codegen::printRowKernel(*L.Desc, "k");
  // The honest aliased emission carries no restrict and no simd; force the
  // qualifier back onto the aliased read, as a printer bug would.
  const std::string Plain = "const double *R0";
  const std::size_t P = Text.find(Plain);
  ASSERT_NE(P, std::string::npos) << Text;
  Text.replace(P, Plain.size(), "const double *restrict R0");
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(Text, D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *Diag = findCheck(D, CheckKernelRestrictAlias);
  ASSERT_NE(Diag, nullptr) << D.toString();
  EXPECT_EQ(Diag->Sev, Severity::Error);
  EXPECT_EQ(Diag->Space, 0);
}

//===----------------------------------------------------------------------===//
// Shape, budget, and the degradation wiring.
//===----------------------------------------------------------------------===//

TEST(KernelVerifier, UnparseableRowIsShapeError) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = directStrideInstr(Kernels);
  Lowered L = lower(I, Kernels);
  // Cut the emission off inside the statement's exec block: the walker
  // opens the statement but no store can be parsed out of it.
  std::string Text = codegen::printRowKernel(*L.Desc, "k");
  const std::size_t P = Text.find("for (int64_t I = 0;");
  ASSERT_NE(P, std::string::npos) << Text;
  Text.resize(P);
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel(Text, D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelShape);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_EQ(E->Sev, Severity::Error);
}

TEST(KernelVerifier, MissingStatementIsFootprintError) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = directStrideInstr(Kernels);
  Lowered L = lower(I, Kernels);
  KernelVerifier V(I, *L.RA.Plan, Kernels);
  Diagnostics D;
  V.verifyRowKernel("void k(void) {}", D);
  ASSERT_EQ(D.all().size(), 1u) << D.toString();
  const Diagnostic *E = findCheck(D, CheckKernelFootprint);
  ASSERT_NE(E, nullptr) << D.toString();
  EXPECT_NE(E->Message.find("absent"), std::string::npos) << E->Message;
}

TEST(KernelVerifier, ExhaustedBudgetIsAWarningNotAnError) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = moduloReadInstr(Kernels);
  Lowered L = lower(I, Kernels);
  KernelVerifyOptions O;
  O.Budget = 1;
  KernelVerifier V(I, *L.RA.Plan, Kernels, O);
  Diagnostics D;
  V.verifyRowKernel(codegen::printRowKernel(*L.Desc, "k"), D);
  EXPECT_FALSE(D.hasErrors()) << D.toString();
  const Diagnostic *W = findCheck(D, CheckKernelBudget);
  ASSERT_NE(W, nullptr) << D.toString();
  EXPECT_EQ(W->Sev, Severity::Warning);
}

TEST(KernelVerifier, FaultInjectedValidationRejectionDegrades) {
  codegen::KernelRegistry Kernels;
  const exec::NestInstr I = directStrideInstr(Kernels);
  auto Spec = exec::FaultInjector::parseSpec("jitval:reject");
  ASSERT_TRUE(static_cast<bool>(Spec)) << Spec.error().toString();
  exec::FaultInjector::global().arm(*Spec);
  // The gate sits before any engine call, so this holds with or without a
  // host compiler present.
  exec::RowAnalysis RA =
      exec::RowPlan::analyze(I, Kernels, &jit::Engine::global());
  exec::FaultInjector::global().disarm();
  ASSERT_TRUE(RA.Plan.has_value());
  EXPECT_EQ(RA.Jit, exec::JitRefusal::ValidationRejected);
  EXPECT_EQ(exec::jitRefusalName(RA.Jit), "validation-rejected");
  EXPECT_EQ(RA.JitStmts, 0);
  EXPECT_EQ(RA.Plan->Row, nullptr);
  EXPECT_NE(RA.JitDetail.find("fault-injected"), std::string::npos)
      << RA.JitDetail;
}

TEST(KernelVerifier, MismatchedSiteKindSpecIsRejected) {
  EXPECT_FALSE(
      static_cast<bool>(exec::FaultInjector::parseSpec("jitval:throw")));
  EXPECT_FALSE(
      static_cast<bool>(exec::FaultInjector::parseSpec("kernel:reject")));
}

//===----------------------------------------------------------------------===//
// The diagnostic JSON schema CI consumes, locked byte for byte.
//===----------------------------------------------------------------------===//

TEST(KernelVerifier, DiagnosticJsonShapeIsStable) {
  Diagnostics D;
  Diagnostic A;
  A.Sev = Severity::Error;
  A.CheckId = CheckKernelFootprint;
  A.Message = "statement 0 read 0 walks stride 3, plan footprint stride 2";
  A.Instr = 1;
  A.Space = 1;
  A.Point = {0, 1};
  A.OtherPoint = {0, 2};
  D.add(std::move(A));
  Diagnostic B;
  B.Sev = Severity::Warning;
  B.CheckId = CheckKernelBudget;
  B.Message = "symbolic walk abandoned";
  D.add(std::move(B));
  EXPECT_EQ(
      D.toJson(),
      "{\"diagnostics\":["
      "{\"severity\":\"error\",\"check\":\"K001-footprint-mismatch\","
      "\"message\":\"statement 0 read 0 walks stride 3, plan footprint "
      "stride 2\",\"instr\":1,\"space\":1,\"point\":[0,1],"
      "\"other_point\":[0,2]},"
      "{\"severity\":\"warning\",\"check\":\"K007-kernel-budget\","
      "\"message\":\"symbolic walk abandoned\"}"
      "],\"errors\":1,\"warnings\":1,\"notes\":0}");
}

//===----------------------------------------------------------------------===//
// End to end: the Figure 1 lowering validates clean through the same
// entry point lcdfg-lint --jit-static uses.
//===----------------------------------------------------------------------===//

namespace {

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

} // namespace

TEST(KernelVerifier, Fig1PlanKernelsValidateClean) {
  parser::ParseResult R = parser::parseLoopChain(Fig1);
  ASSERT_TRUE(static_cast<bool>(R)) << R.Error;
  ir::LoopChain Chain = std::move(*R.Chain);
  codegen::KernelRegistry Kernels;
  driver::assignStandInKernels(Chain, Kernels, /*Pure=*/false);
  graph::Graph G = graph::buildGraph(Chain);
  exec::ParamEnv Env{{"N", std::int64_t{8}}};
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/true);
  storage::ConcreteStorage Store(SPlan, Env);
  codegen::AstPtr Ast = codegen::generate(G);
  exec::ExecutionPlan Plan = exec::ExecutionPlan::fromAst(G, *Ast, Store, Env);
  Diagnostics D = verifyPlanKernels(Plan, Kernels);
  EXPECT_TRUE(D.all().empty()) << D.toString();
}
