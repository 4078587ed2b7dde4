//===- bench/bench_micro.cpp ----------------------------------------------===//
//
// Google-benchmark microbenchmarks of the library machinery itself: graph
// construction, cost evaluation, transformation recipes, storage planning,
// and the schedule interpreter. These measure the compiler-side costs of
// the approach rather than the generated code.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "codegen/Interpreter.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/LivenessAllocator.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <benchmark/benchmark.h>

using namespace lcdfg;
using namespace lcdfg::graph;

static void BM_BuildChain3D(benchmark::State &State) {
  for (auto _ : State) {
    ir::LoopChain Chain = mfd::buildChain3D();
    benchmark::DoNotOptimize(Chain.numNests());
  }
}
BENCHMARK(BM_BuildChain3D);

static void BM_BuildGraph(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain3D();
  for (auto _ : State) {
    Graph G = buildGraph(Chain);
    benchmark::DoNotOptimize(G.numStmtNodes());
  }
}
BENCHMARK(BM_BuildGraph);

static void BM_CostModel(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain3D();
  Graph G = buildGraph(Chain);
  for (auto _ : State) {
    CostReport Cost = computeCost(G);
    benchmark::DoNotOptimize(Cost.TotalRead.degree());
  }
}
BENCHMARK(BM_CostModel);

static void BM_FuseAllRecipe(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain3D();
  for (auto _ : State) {
    Graph G = buildGraph(Chain);
    mfd::applyFuseAllLevels(G);
    storage::reduceStorage(G);
    benchmark::DoNotOptimize(G.maxRow());
  }
}
BENCHMARK(BM_FuseAllRecipe);

static void BM_LivenessAllocation(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain3D();
  Graph G = buildGraph(Chain);
  for (auto _ : State) {
    storage::Allocation A = storage::allocateSpaces(G);
    benchmark::DoNotOptimize(A.Spaces.size());
  }
}
BENCHMARK(BM_LivenessAllocation);

static void BM_GenerateAst(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain3D();
  Graph G = buildGraph(Chain);
  for (auto _ : State) {
    codegen::AstPtr Root = codegen::generate(G);
    benchmark::DoNotOptimize(Root->countStatements());
  }
}
BENCHMARK(BM_GenerateAst);

static void BM_InterpretSeries2D(benchmark::State &State) {
  ir::LoopChain Chain = mfd::buildChain2D();
  codegen::KernelRegistry Kernels;
  mfd::registerKernels(Chain, Kernels);
  Graph G = buildGraph(Chain);
  std::map<std::string, std::int64_t, std::less<>> Env{
      {"N", State.range(0)}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, Env);
  codegen::AstPtr Root = codegen::generate(G);
  for (auto _ : State) {
    exec::runPlan(exec::ExecutionPlan::fromAst(G, *Root, Store, Env),
                  Kernels, Store);
    benchmark::DoNotOptimize(Store.at("out_rho", {0, 0}));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_InterpretSeries2D)->Arg(8)->Arg(16)->Arg(32);
