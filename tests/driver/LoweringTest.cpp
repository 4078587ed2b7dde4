//===- tests/driver/LoweringTest.cpp - Shared chain lowering --------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// The one sum-of-reads stand-in must compute the same bits through each of
// its three bodies (scalar, batched, expression), its assignment must keep
// real kernels and share ids by arity, and the shared lowering must hand
// back a runnable primary + fallback pair.
//
//===----------------------------------------------------------------------===//

#include "driver/Lowering.h"

#include "exec/PlanRunner.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace lcdfg;

namespace {

constexpr const char *Fig1Chain =
    "#pragma omplc for domain(0:N, 0:N-1) with (x, y) "
    "write VAL_1{(x,y)} read VAL_0{(x,y)}\n"
    "S1: VAL_1(x,y) = f(VAL_0(x,y));\n"
    "#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) "
    "write VAL_2{(x,y)} read VAL_1{(x,y),(x+1,y)}\n"
    "S2: VAL_2(x,y) = g(VAL_1(x,y), VAL_1(x+1,y));\n";

ir::LoopChain parse(const std::string &Text) {
  parser::ParseResult P = parser::parseLoopChain(Text);
  EXPECT_TRUE(bool(P)) << P.Error;
  return std::move(*P.Chain);
}

TEST(StandIn, ScalarBatchedAndExpressionBodiesAreBitIdentical) {
  std::mt19937_64 Rng(0x5eed);
  // Signed values across magnitudes, so rounding order shows.
  std::uniform_real_distribution<double> Mant(-1.0, 1.0);
  std::uniform_int_distribution<int> Exp(-20, 20);
  auto draw = [&] { return std::ldexp(Mant(Rng), Exp(Rng)); };

  for (bool Pure : {false, true})
    for (std::size_t Arity = 0; Arity <= 9; ++Arity) {
      SCOPED_TRACE("arity " + std::to_string(Arity) +
                   (Pure ? " pure" : " accumulating"));
      codegen::KernelRegistry Kernels;
      int Id = driver::addStandInKernel(Kernels, Arity, Pure);
      const codegen::KernelExpr *E = Kernels.expr(Id);
      ASSERT_NE(E, nullptr);
      codegen::BatchedKernel B = Kernels.batched(Id);
      EXPECT_EQ(B == nullptr, Arity > 8) << "batched bodies cover 0..8";

      constexpr std::int64_t N = 33;
      // Operand J is read at stride J % 3 (0 broadcasts one value).
      std::vector<std::vector<double>> Operands(Arity);
      std::vector<const double *> Ptrs;
      std::vector<std::int64_t> Strides;
      for (std::size_t J = 0; J < Arity; ++J) {
        for (std::int64_t I = 0; I < 2 * N; ++I)
          Operands[J].push_back(draw());
        Ptrs.push_back(Operands[J].data());
        Strides.push_back(static_cast<std::int64_t>(J % 3));
      }
      std::vector<double> Target(N);
      for (double &T : Target)
        T = draw();

      std::vector<double> Batched = Target;
      if (B)
        B(Batched.data(), Ptrs.data(), Strides.data(), 1, N);
      for (std::int64_t I = 0; I < N; ++I) {
        std::vector<double> Reads;
        for (std::size_t J = 0; J < Arity; ++J)
          Reads.push_back(Operands[J][static_cast<std::size_t>(
              I * Strides[J])]);
        const double Scalar = Kernels.get(Id)(Reads, Target[I]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Scalar),
                  std::bit_cast<std::uint64_t>(E->eval(Reads, Target[I])))
            << "point " << I;
        if (B) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(Scalar),
                    std::bit_cast<std::uint64_t>(Batched[I]))
              << "point " << I;
        }
      }
    }
}

TEST(StandIn, PureIgnoresTheTargetAndAccumulatingAddsIt) {
  codegen::KernelRegistry Kernels;
  int Acc = driver::addStandInKernel(Kernels, 2, /*Pure=*/false);
  int Pure = driver::addStandInKernel(Kernels, 2, /*Pure=*/true);
  EXPECT_EQ(Kernels.get(Acc)({1.0, 2.0}, 4.0), 7.0);
  EXPECT_EQ(Kernels.get(Pure)({1.0, 2.0}, 4.0), 3.0);
  // A NaN-poisoned target must not reach the pure result.
  EXPECT_EQ(Kernels.get(Pure)({1.0, 2.0}, std::nan("")), 3.0);
}

TEST(StandIn, AssignmentKeepsRealKernelsAndSharesIdsByArity) {
  ir::LoopChain Chain = parse(
      std::string(Fig1Chain) +
      "#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) "
      "write VAL_3{(x,y)} read VAL_2{(x,y)}\n"
      "S3: VAL_3(x,y) = h(VAL_2(x,y));\n"
      "#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) "
      "write VAL_4{(x,y)} read VAL_3{(x,y)}\n"
      "S4: VAL_4(x,y) = k(VAL_3(x,y));\n");
  ASSERT_EQ(Chain.numNests(), 4u);
  codegen::KernelRegistry Kernels;
  const int Real = Kernels.add(
      [](const std::vector<double> &, double) { return 42.0; });
  Chain.nest(3).KernelId = Real;

  driver::assignStandInKernels(Chain, Kernels, /*Pure=*/false);
  EXPECT_EQ(Chain.nest(3).KernelId, Real) << "a real kernel was replaced";
  EXPECT_EQ(Chain.nest(0).KernelId, Chain.nest(2).KernelId)
      << "two arity-1 nests got different stand-ins";
  EXPECT_NE(Chain.nest(0).KernelId, Chain.nest(1).KernelId);
  EXPECT_NE(Chain.nest(0).KernelId, Real);
  EXPECT_NE(Chain.nest(1).KernelId, Real);
  EXPECT_EQ(Kernels.get(Chain.nest(1).KernelId)({1.0, 2.0}, 0.5), 3.5);

  // Re-running is a no-op: every nest already has a kernel.
  const int Before = Chain.nest(1).KernelId;
  driver::assignStandInKernels(Chain, Kernels, /*Pure=*/false);
  EXPECT_EQ(Chain.nest(1).KernelId, Before);
}

TEST(StandIn, SeedIsTheDocumentedPattern) {
  driver::Scheduled S(parse(Fig1Chain));
  auto L = driver::Lowered::lower(std::move(S), {}, {});
  ASSERT_TRUE(bool(L)) << L.error().toString();
  storage::ConcreteStorage Store(L->SPlan, L->Env);
  L->seedStore(Store);
  // 0.001 * ((I * 2654435761) mod 1000) for I = 0..3, in 64-bit index
  // arithmetic.
  const std::vector<double> &In = Store.spaceOf("VAL_0");
  ASSERT_GT(In.size(), 3u);
  EXPECT_EQ(In[0], 0.0);
  EXPECT_EQ(In[1], 0.001 * 761.0);
  EXPECT_EQ(In[2], 0.001 * 522.0);
  EXPECT_EQ(In[3], 0.001 * 283.0);
  EXPECT_EQ(Store.spaceOf("VAL_2"), std::vector<double>(
                                        Store.spaceOf("VAL_2").size(), 0.0))
      << "only persistent inputs are seeded";
}

TEST(Lowering, PrimaryAndFallbackRunToTheSameOutput) {
  driver::Scheduled S(parse(Fig1Chain));
  parser::ScriptResult R = parser::runScript(*S.G, "fusepc S1 S2\n");
  ASSERT_TRUE(bool(R)) << R.Error;
  driver::LowerOptions Opts;
  Opts.Size = 9;
  Opts.Widen = 2;
  auto L = driver::Lowered::lower(std::move(S), {}, Opts);
  ASSERT_TRUE(bool(L)) << L.error().toString();

  for (const char *Sym : {"N", "M", "X", "Y", "Z", "W"})
    EXPECT_EQ(L->Env.at(Sym), 9) << Sym;
  EXPECT_GT(L->StoreBytes, 0);
  EXPECT_GT(L->FallbackBytes, 0);
  EXPECT_FALSE(L->verify().hasErrors()) << L->verify().toString();
  EXPECT_EQ(L->Plan.Instrs.size(), 1u) << "the script fused S1 and S2";
  EXPECT_EQ(L->FbPlan.Instrs.size(), 2u) << "the fallback is untransformed";

  storage::ConcreteStorage Store(L->SPlan, L->Env);
  storage::ConcreteStorage FbStore(L->FbSPlan, L->Env);
  L->seedStore(Store);
  L->seedStore(FbStore);
  exec::runPlan(L->Plan, L->Kernels, Store);
  exec::runPlan(L->FbPlan, L->Kernels, FbStore);
  EXPECT_EQ(Store.spaceOf("VAL_2"), FbStore.spaceOf("VAL_2"));
}

TEST(Lowering, HardenSelectsPureStandIns) {
  driver::LowerOptions Opts;
  Opts.Harden = true;
  auto L = driver::Lowered::lower(driver::Scheduled(parse(Fig1Chain)), {},
                                  Opts);
  ASSERT_TRUE(bool(L)) << L.error().toString();
  const int Id = L->Chain->nest(0).KernelId;
  EXPECT_EQ(L->Kernels.get(Id)({2.0}, 100.0), 2.0);
}

} // namespace
