//===- tests/tiling/WavefrontTest.cpp -------------------------------------===//

#include "tiling/Wavefront.h"

#include "../common/RandomChain.h"
#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "graph/GraphBuilder.h"
#include "graph/Transforms.h"
#include "pipelines/UnsharpMask.h"
#include "support/Status.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::tiling;
using namespace lcdfg::graph;

namespace {

/// The 1D Fx -> Dx chain of Figure 5, fused with its +1 shift.
struct Fused1D {
  ir::LoopChain Chain;
  Graph G;
  NodeId Node;

  Fused1D() : Chain(makeChain()), G(buildGraph(Chain)) {
    EXPECT_TRUE(fuseProducerConsumer(G, G.findStmt("Fx"), G.findStmt("Dx")));
    Node = G.findStmt("Fx+Dx");
  }

  static ir::LoopChain makeChain() {
    ir::LoopChain Chain("fig5");
    poly::AffineExpr N = poly::AffineExpr::var("N");
    ir::LoopNest Fx;
    Fx.Name = "Fx";
    Fx.Domain = poly::BoxSet({poly::Dim{"i", poly::AffineExpr(0), N}});
    Fx.Write = ir::Access{"F", {{0}}};
    Fx.Reads = {ir::Access{"in", {{-1}, {0}}}};
    Chain.addNest(Fx);
    ir::LoopNest Dx;
    Dx.Name = "Dx";
    Dx.Domain = poly::BoxSet(
        {poly::Dim{"i", poly::AffineExpr(0), N - poly::AffineExpr(1)}});
    Dx.Write = ir::Access{"out", {{0}}};
    Dx.Reads = {ir::Access{"F", {{0}, {1}}}};
    Chain.addNest(Dx);
    Chain.finalize();
    return Chain;
  }
};

} // namespace

TEST(Wavefront, Figure5eClassicTilingOfFusedScheduleIsSerial) {
  Fused1D F;
  ParamEnv Env{{"N", 8}};
  WavefrontPlan Plan = wavefrontTiling(F.G, F.Node, {4}, Env);
  // Figure 5(e): the +1 dependence chains the tiles — serial execution.
  ASSERT_EQ(Plan.Tiles.size(), 3u); // 9 fused iterations / 4
  EXPECT_TRUE(Plan.isSerial());
  EXPECT_EQ(Plan.Fronts.size(), Plan.Tiles.size());
  ASSERT_EQ(Plan.DepVectors.size(), 1u);
  EXPECT_EQ(Plan.DepVectors[0], (std::vector<int>{1}));
}

TEST(Wavefront, ExecutionMatchesFusedSemantics) {
  Fused1D F;
  codegen::KernelRegistry Kernels;
  F.Chain.nest(0).KernelId =
      Kernels.add([](const std::vector<double> &R, double) {
        return 0.5 * (R[0] + R[1]);
      });
  F.Chain.nest(1).KernelId =
      Kernels.add([](const std::vector<double> &R, double) {
        return R[1] - R[0];
      });
  ParamEnv Env{{"N", 8}};

  auto Run = [&](bool Tiled, bool Reverse) {
    storage::StoragePlan Plan = storage::StoragePlan::build(F.G);
    storage::ConcreteStorage Store(Plan, Env);
    F.Chain.array("in").Extent->forEachPoint(
        Env, [&](const std::vector<std::int64_t> &P) {
          Store.at("in", P) = 1.0 + 0.1 * static_cast<double>(P[0]);
        });
    if (Tiled) {
      WavefrontPlan WPlan = wavefrontTiling(F.G, F.Node, {4}, Env);
      executeWavefront(F.G, F.Node, WPlan, Kernels, Store, Env, Reverse);
    } else {
      codegen::AstPtr Ast = codegen::generate(F.G);
      exec::runPlan(exec::ExecutionPlan::fromAst(F.G, *Ast, Store, Env),
                    Kernels, Store);
    }
    std::vector<double> Out;
    for (std::int64_t I = 0; I < 8; ++I)
      Out.push_back(Store.at("out", {I}));
    return Out;
  };

  std::vector<double> Expected = Run(false, false);
  EXPECT_EQ(Run(true, false), Expected);
  EXPECT_EQ(Run(true, true), Expected);
}

TEST(Wavefront, TwoDimensionalFusionExposesFrontParallelism) {
  // The fused unsharp pipeline has dependences only in y (the x blur reads
  // the persistent input): tiling (y, x) gives fronts that span all x
  // tiles — parallelism the serialized 1D case lacks.
  ir::LoopChain Chain = pipelines::buildUnsharpChain();
  Graph G = buildGraph(Chain);
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx"),
                                   G.findStmt("blury")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury"),
                                   G.findStmt("sharpen")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury+sharpen"),
                                   G.findStmt("mask")));
  NodeId Node = G.findStmt("blurx+blury+sharpen+mask");
  ASSERT_NE(Node, InvalidNode);

  ParamEnv Env{{"N", 16}};
  WavefrontPlan Plan = wavefrontTiling(G, Node, {8, 8}, Env);
  EXPECT_FALSE(Plan.isSerial());
  // Dependences point in +y only.
  for (const auto &V : Plan.DepVectors) {
    EXPECT_EQ(V[0], 1);
    EXPECT_EQ(V[1], 0);
  }
  EXPECT_GE(Plan.maxParallelism(), 2u);

  // Execution equivalence, both tile orders.
  codegen::KernelRegistry Kernels;
  pipelines::registerKernels(Chain, Kernels);
  auto Run = [&](bool Tiled, bool Reverse) {
    storage::StoragePlan SPlan = storage::StoragePlan::build(G);
    storage::ConcreteStorage Store(SPlan, Env);
    Chain.array("img").Extent->forEachPoint(
        Env, [&](const std::vector<std::int64_t> &P) {
          Store.at("img", P) =
              0.3 + 0.01 * static_cast<double>(P[0] * 3 + P[1]);
        });
    if (Tiled) {
      executeWavefront(G, Node, Plan, Kernels, Store, Env, Reverse);
    } else {
      codegen::AstPtr Ast = codegen::generate(G);
      exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, Env),
                    Kernels, Store);
    }
    std::vector<double> Out;
    for (std::int64_t Y = 0; Y < 16; ++Y)
      for (std::int64_t X = 0; X < 16; ++X)
        Out.push_back(Store.at("out", {Y, X}));
    return Out;
  };
  std::vector<double> Expected = Run(false, false);
  EXPECT_EQ(Run(true, false), Expected);
  EXPECT_EQ(Run(true, true), Expected);
}

TEST(Wavefront, RejectsTilesSmallerThanTheStencil) {
  ir::LoopChain Chain = pipelines::buildUnsharpChain();
  Graph G = buildGraph(Chain);
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx"),
                                   G.findStmt("blury")));
  NodeId Node = G.findStmt("blurx+blury");
  ParamEnv Env{{"N", 16}};
  // The y dependence distance reaches 4; a tile of 2 cannot contain it.
  try {
    wavefrontTiling(G, Node, {2, 8}, Env);
    FAIL() << "expected StatusError";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::TilingInvalid);
    EXPECT_NE(E.status().message().find("dependence distance exceeds"),
              std::string::npos);
  }
}

TEST(Wavefront, UntiledDimensionsAreSupported) {
  Fused1D F;
  ParamEnv Env{{"N", 8}};
  WavefrontPlan Plan = wavefrontTiling(F.G, F.Node, {0}, Env);
  EXPECT_EQ(Plan.Tiles.size(), 1u);
  EXPECT_EQ(Plan.Fronts.size(), 1u);
  EXPECT_TRUE(Plan.isSerial());
}
