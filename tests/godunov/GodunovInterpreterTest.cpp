//===- tests/godunov/GodunovInterpreterTest.cpp ---------------------------===//
//
// Closes the loop on the Section 5.6 case study: the ComputeWHalf loop
// chain, executed through the graph/codegen/interpreter pipeline (in both
// the Figure 13 and fused Figure 14 schedules), must agree with the
// hand-written kernels of Godunov.cpp.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "godunov/Godunov.h"
#include "godunov/GodunovGraph.h"
#include "graph/GraphBuilder.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

using Env = std::map<std::string, std::int64_t, std::less<>>;

/// Interprets the chain (per one component) and compares WHalf_1..3
/// against the hand kernels applied to a box whose components all carry
/// the same field.
void checkSchedule(bool Fused, int N) {
  // Hand-kernel reference.
  rt::Box W(N, gdnv::GhostDepth, gdnv::NumComps);
  W.fillPseudoRandom(0xfeed);
  // Make every component identical so the single-component chain is
  // comparable against any of them.
  for (int C = 1; C < gdnv::NumComps; ++C)
    for (int Z = -gdnv::GhostDepth; Z < N + gdnv::GhostDepth; ++Z)
      for (int Y = -gdnv::GhostDepth; Y < N + gdnv::GhostDepth; ++Y)
        for (int X = -gdnv::GhostDepth; X < N + gdnv::GhostDepth; ++X)
          W.at(C, Z, Y, X) = W.at(0, Z, Y, X);
  auto Out = gdnv::makeOutputs(1, N);
  gdnv::computeWHalfOriginal(W, Out[0]);

  // Interpreted chain.
  ir::LoopChain Chain = gdnv::buildComputeWHalfChain();
  codegen::KernelRegistry Kernels;
  gdnv::registerKernels(Chain, Kernels);
  Graph G = buildGraph(Chain);
  if (Fused) {
    gdnv::applyGodunovFusion(G);
    storage::reduceStorage(G);
  }
  Env E{{"N", N}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, E);
  G.chain().array("W").Extent->forEachPoint(
      E, [&](const std::vector<std::int64_t> &P) {
        Store.at("W", P) =
            W.at(0, static_cast<int>(P[0]), static_cast<int>(P[1]),
                 static_cast<int>(P[2]));
      });
  codegen::AstPtr Ast = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, E),
                Kernels, Store);

  for (int D = 1; D <= 3; ++D)
    for (int Z = 0; Z < N; ++Z)
      for (int Y = 0; Y < N; ++Y)
        for (int X = 0; X < N; ++X)
          ASSERT_NEAR(
              Store.at("WHalf_" + std::to_string(D), {Z, Y, X}),
              Out[0][D - 1].at(0, Z, Y, X), 1e-13)
              << "dim " << D << " at " << Z << "," << Y << "," << X;
}

} // namespace

TEST(GodunovInterpreter, Figure13ScheduleMatchesHandKernels) {
  checkSchedule(/*Fused=*/false, 4);
}

TEST(GodunovInterpreter, Figure14ScheduleMatchesHandKernels) {
  checkSchedule(/*Fused=*/true, 4);
}

TEST(GodunovInterpreter, LargerBoxStillExact) {
  checkSchedule(/*Fused=*/true, 7);
}
