//===- tests/pipelines/UnsharpMaskTest.cpp --------------------------------===//

#include "pipelines/UnsharpMask.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "graph/Transforms.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::pipelines;
using namespace lcdfg::graph;

TEST(UnsharpMask, FusedKernelMatchesSeries) {
  for (int N : {8, 17, 32}) {
    Image In(N);
    In.fillPseudoRandom(0x1333 + N);
    Image A(N), B(N);
    runUnsharpSeries(In, A);
    runUnsharpFused(In, B);
    EXPECT_EQ(maxAbsDiff(A, B), 0.0) << "N=" << N;
  }
}

TEST(UnsharpMask, ChainShape) {
  ir::LoopChain Chain = buildUnsharpChain();
  EXPECT_EQ(Chain.numNests(), 4u);
  EXPECT_EQ(Chain.array("img").Kind, ir::StorageKind::PersistentInput);
  EXPECT_EQ(Chain.array("out").Kind, ir::StorageKind::PersistentOutput);
  EXPECT_EQ(Chain.array("blurx").Kind, ir::StorageKind::Temporary);
  // blurx covers the two halo rows the y-blur needs.
  EXPECT_EQ(Chain.valueSize("blurx").toString(), "N^2+4N");
}

TEST(UnsharpMask, FusionCollapsesIntermediatesToLineBuffers) {
  ir::LoopChain Chain = buildUnsharpChain();
  Graph G = buildGraph(Chain);
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx"),
                                   G.findStmt("blury")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury"),
                                   G.findStmt("sharpen")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury+sharpen"),
                                   G.findStmt("mask")));
  auto Reduced = storage::reduceStorage(G);
  // blurx: produced 2 rows ahead of its consumption window -> 4N+1.
  EXPECT_EQ(Reduced.at("blurx").toString(), "4N+1");
  EXPECT_EQ(Reduced.at("blury").toString(), "1");
  EXPECT_EQ(Reduced.at("sharpen").toString(), "1");
  // The cost drop mirrors the hand kernels' footprint drop.
  CostReport Cost = computeCost(G);
  EXPECT_EQ(Cost.TotalRead.degree(), 2u);
  EXPECT_LE(Cost.TotalRead.coeff(2), 3); // img streams only
}

TEST(UnsharpMask, AutoSchedulerFindsTheFusedPipeline) {
  ir::LoopChain Chain = buildUnsharpChain();
  Graph G = buildGraph(Chain);
  Polynomial Before = computeCost(G).TotalRead;
  AutoScheduleResult R = autoSchedule(G);
  EXPECT_TRUE(R.FinalRead.asymptoticallyLess(Before));
  // One fused statement node remains.
  unsigned Live = 0;
  for (NodeId S = 0; S < G.numStmtNodes(); ++S)
    Live += G.stmt(S).Dead ? 0 : 1;
  EXPECT_EQ(Live, 1u);
}

TEST(UnsharpMask, InterpretedFusedScheduleMatchesHandKernels) {
  const std::int64_t N = 10;
  Image In(static_cast<int>(N));
  In.fillPseudoRandom(0xabc);
  Image Expected(static_cast<int>(N));
  runUnsharpSeries(In, Expected);

  ir::LoopChain Chain = buildUnsharpChain();
  codegen::KernelRegistry Kernels;
  registerKernels(Chain, Kernels);
  Graph G = buildGraph(Chain);
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx"),
                                   G.findStmt("blury")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury"),
                                   G.findStmt("sharpen")));
  ASSERT_TRUE(fuseProducerConsumer(G, G.findStmt("blurx+blury+sharpen"),
                                   G.findStmt("mask")));
  storage::reduceStorage(G);

  std::map<std::string, std::int64_t, std::less<>> Env{{"N", N}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, Env);
  G.chain().array("img").Extent->forEachPoint(
      Env, [&](const std::vector<std::int64_t> &P) {
        Store.at("img", P) = In.at(static_cast<int>(P[0]),
                                   static_cast<int>(P[1]));
      });
  codegen::AstPtr Ast = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, Env),
                Kernels, Store);

  for (int Y = 0; Y < N; ++Y)
    for (int X = 0; X < N; ++X)
      ASSERT_NEAR(Store.at("out", {Y, X}), Expected.at(Y, X), 1e-14)
          << Y << "," << X;
}

TEST(UnsharpMask, TemporaryFootprints) {
  EXPECT_GT(temporaryElementsSeries(512), temporaryElementsFused(512) * 50);
}
