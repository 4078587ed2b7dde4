//===- tests/minifluxdiv/EndToEndTest.cpp ---------------------------------===//
//
// Integration tests crossing every layer: pragma text -> chain -> graph ->
// transforms -> storage -> generated code -> interpreted execution, checked
// against the hand-written kernels.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "codegen/Interpreter.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "minifluxdiv/Variants.h"
#include "graph/Transforms.h"
#include "parser/PragmaParser.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "tiling/Tiling.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

/// The x-direction slice of MiniFluxDiv written in the pragma language.
const char *MfdXSource = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write F1x_rho{(x,y)} \
    read in_rho{(x-2,y),(x-1,y),(x,y),(x+1,y)}
Fx1_rho: F1x_rho(x,y) = flux1(in_rho);

#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write F1x_u{(x,y)} read in_u{(x-2,y),(x-1,y),(x,y),(x+1,y)}
Fx1_u: F1x_u(x,y) = flux1(in_u);

#pragma omplc for domain(0:N, 0:N-1) with (x, y) \
    write F2x_rho{(x,y)} read F1x_rho{(x,y)} read F1x_u{(x,y)}
Fx2_rho: F2x_rho(x,y) = F1x_rho(x,y) * F1x_u(x,y);

#pragma omplc for domain(0:N-1, 0:N-1) with (x, y) \
    write out_rho{(x,y)} read F2x_rho{(x,y),(x+1,y)}
Dx_rho: out_rho(x,y) = out_rho(x,y) + K*(F2x_rho(x+1,y)-F2x_rho(x,y));
}
)";

} // namespace

TEST(EndToEnd, ParsedChainMatchesBuilderChain) {
  auto R = parser::parseLoopChain(MfdXSource);
  ASSERT_TRUE(R) << R.Error;
  const ir::LoopChain &Parsed = *R.Chain;
  ir::LoopChain Built = mfd::buildChain2D();

  // The parsed x-slice agrees with the builder's chain on the shared
  // nests: domains, footprints, classifications.
  for (const char *Name : {"Fx1_rho", "Fx2_rho", "Dx_rho"}) {
    unsigned PI = 0, BI = 0;
    for (unsigned I = 0; I < Parsed.numNests(); ++I)
      if (Parsed.nest(I).Name == Name)
        PI = I;
    for (unsigned I = 0; I < Built.numNests(); ++I)
      if (Built.nest(I).Name == Name)
        BI = I;
    EXPECT_EQ(Parsed.nest(PI).Domain, Built.nest(BI).Domain) << Name;
    EXPECT_EQ(Parsed.nest(PI).Write.Offsets, Built.nest(BI).Write.Offsets);
  }
  EXPECT_EQ(Parsed.valueSize("F1x_rho"), Built.valueSize("F1x_rho"));
  EXPECT_EQ(Parsed.array("out_rho").Kind,
            ir::StorageKind::PersistentOutput);
}

TEST(EndToEnd, ParsedChainTransformsAndExecutes) {
  auto R = parser::parseLoopChain(MfdXSource);
  ASSERT_TRUE(R) << R.Error;
  ir::LoopChain Chain = std::move(*R.Chain);

  // Register kernels for the parsed statements.
  codegen::KernelRegistry Kernels;
  int F1 = Kernels.add([](const std::vector<double> &V, double) {
    return mfd::FluxC1 * (V[1] + V[2]) - mfd::FluxC2 * (V[0] + V[3]);
  });
  int F2 = Kernels.add([](const std::vector<double> &V, double) {
    return V[0] * V[1];
  });
  int D = Kernels.add([](const std::vector<double> &V, double Cur) {
    return Cur + mfd::DiffScale * (V[1] - V[0]);
  });
  Chain.nest(0).KernelId = F1;
  Chain.nest(1).KernelId = F1;
  Chain.nest(2).KernelId = F2;
  Chain.nest(3).KernelId = D;

  auto RunGraph = [&](Graph &G) {
    std::map<std::string, std::int64_t, std::less<>> Env{{"N", 6}};
    storage::StoragePlan Plan = storage::StoragePlan::build(G);
    storage::ConcreteStorage Store(Plan, Env);
    for (const std::string A : {"in_rho", "in_u"})
      G.chain().array(A).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            Store.at(A, P) =
                1.0 + 0.01 * static_cast<double>(P[0] * 17 + P[1] * 3);
          });
    codegen::AstPtr Root = codegen::generate(G);
    exec::runPlan(exec::ExecutionPlan::fromAst(G, *Root, Store, Env),
                  Kernels, Store);
    std::vector<double> Out;
    for (std::int64_t Y = 0; Y < 6; ++Y)
      for (std::int64_t X = 0; X < 6; ++X)
        Out.push_back(Store.at("out_rho", {Y, X}));
    return Out;
  };

  Graph Series = buildGraph(Chain);
  std::vector<double> Expected = RunGraph(Series);

  Graph Fused = buildGraph(Chain);
  ASSERT_TRUE(fuseProducerConsumer(Fused, Fused.findStmt("Fx1_rho"),
                                   Fused.findStmt("Fx2_rho")));
  ASSERT_TRUE(fuseProducerConsumer(Fused, Fused.findStmt("Fx1_rho+Fx2_rho"),
                                   Fused.findStmt("Dx_rho")));
  storage::reduceStorage(Fused);
  EXPECT_EQ(Fused.value(Fused.findValue("F2x_rho")).Size.toString(), "2");
  std::vector<double> Got = RunGraph(Fused);

  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_NEAR(Expected[I], Got[I], 1e-12);
}

TEST(EndToEnd, InterpreterAgreesWithHandKernels3D) {
  // The interpreted 3D series schedule equals the hand-written
  // series-of-loops kernel on the same inputs.
  const int N = 4;
  mfd::Problem P;
  P.BoxSize = N;
  P.NumBoxes = 1;
  std::vector<rt::Box> In = mfd::makeInputs(P, 2024);
  std::vector<rt::Box> Out = mfd::makeOutputs(P);
  mfd::RunConfig Cfg;
  mfd::runVariant(mfd::Variant::SeriesReduced, In, Out, Cfg);

  ir::LoopChain Chain = mfd::buildChain3D();
  codegen::KernelRegistry Kernels;
  mfd::registerKernels(Chain, Kernels);
  Graph G = buildGraph(Chain);
  std::map<std::string, std::int64_t, std::less<>> Env{{"N", N}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, Env);

  const char *Comps[5] = {"rho", "u", "v", "w", "e"};
  for (int C = 0; C < 5; ++C) {
    std::string A = std::string("in_") + Comps[C];
    G.chain().array(A).Extent->forEachPoint(
        Env, [&](const std::vector<std::int64_t> &Pt) {
          Store.at(A, Pt) = In[0].at(C, static_cast<int>(Pt[0]),
                                     static_cast<int>(Pt[1]),
                                     static_cast<int>(Pt[2]));
        });
    for (int Z = 0; Z < N; ++Z)
      for (int Y = 0; Y < N; ++Y)
        for (int X = 0; X < N; ++X)
          Store.at(std::string("out_") + Comps[C], {Z, Y, X}) =
              In[0].at(C, Z, Y, X);
  }
  codegen::AstPtr Root = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Root, Store, Env),
                Kernels, Store);

  for (int C = 0; C < 5; ++C)
    for (int Z = 0; Z < N; ++Z)
      for (int Y = 0; Y < N; ++Y)
        for (int X = 0; X < N; ++X)
          EXPECT_NEAR(Store.at(std::string("out_") + Comps[C], {Z, Y, X}),
                      Out[0].at(C, Z, Y, X), 1e-12)
              << Comps[C] << " " << Z << " " << Y << " " << X;
}

TEST(EndToEnd, CostRankingPredictsMeasuredRanking) {
  // The cost model's S_R ordering for large boxes (series > fuse-all
  // reduced) matches the measured runtime ordering of the hand kernels.
  ir::LoopChain C1 = mfd::buildChain3D();
  Graph Series = buildGraph(C1);
  ir::LoopChain C2 = mfd::buildChain3D();
  Graph FusedAll = buildGraph(C2);
  mfd::applyFuseAllLevels(FusedAll);
  storage::reduceStorage(FusedAll);
  Polynomial SSeries = computeCost(Series).TotalRead;
  Polynomial SFused = computeCost(FusedAll).TotalRead;
  ASSERT_TRUE(SFused.asymptoticallyLess(SSeries));

  mfd::Problem P;
  P.BoxSize = 32;
  P.NumBoxes = 4;
  std::vector<rt::Box> In = mfd::makeInputs(P, 7);
  std::vector<rt::Box> Out = mfd::makeOutputs(P);
  mfd::RunConfig Cfg;

  auto Time = [&](mfd::Variant V) {
    // Warm-up plus best-of-3 to de-noise the single-core container.
    mfd::runVariant(V, In, Out, Cfg);
    double Best = 1e30;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      mfd::runVariant(V, In, Out, Cfg);
      auto T1 = std::chrono::steady_clock::now();
      Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
    }
    return Best;
  };
  double TSeries = Time(mfd::Variant::SeriesSA);
  double TFused = Time(mfd::Variant::FuseAllReduced);
  // Allow generous noise margin; the paper's effect at this size is >1.5x.
  EXPECT_LT(TFused, TSeries * 1.1);
}
