//===- examples/autoschedule.cpp ------------------------------------------===//
//
// Automatic schedule derivation: instead of hand-applying the paper's
// transformation recipes, let the greedy cost-model-driven search find a
// schedule, then compare it against the hand-derived variants, export the
// resulting ISCC script, and validate the schedule by interpretation.
//
//   $ ./autoschedule [streamBudget]
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "codegen/Interpreter.h"
#include "codegen/IsccExport.h"
#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/DotExport.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

std::vector<double> interpret(Graph &G, codegen::KernelRegistry &Kernels,
                              std::int64_t N) {
  std::map<std::string, std::int64_t, std::less<>> Env{{"N", N}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, Env);
  for (const std::string C : {"rho", "u", "v", "e"}) {
    G.chain().array("in_" + C).Extent->forEachPoint(
        Env, [&](const std::vector<std::int64_t> &P) {
          Store.at("in_" + C, P) =
              1.0 + 0.001 * static_cast<double>(P[0] * 37 + P[1] * 11);
        });
  }
  codegen::AstPtr Ast = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, Env),
                Kernels, Store);
  std::vector<double> Out;
  for (const std::string C : {"rho", "u", "v", "e"})
    for (std::int64_t Y = 0; Y < N; ++Y)
      for (std::int64_t X = 0; X < N; ++X)
        Out.push_back(Store.at("out_" + C, {Y, X}));
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Budget = argc > 1 ? std::atoi(argv[1]) : 4;

  ir::LoopChain Chain = mfd::buildChain2D();
  codegen::KernelRegistry Kernels;
  mfd::registerKernels(Chain, Kernels);

  Graph Reference = buildGraph(Chain);
  std::vector<double> Expected = interpret(Reference, Kernels, 8);

  Graph G = buildGraph(Chain);
  AutoScheduleOptions Options;
  Options.MaxStreams = Budget;
  AutoScheduleResult R = autoSchedule(G, Options);

  std::printf("auto-scheduling MiniFluxDiv 2D (stream budget %u)\n\n",
              Budget);
  for (const std::string &Line : R.Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("\n%u moves: S_R %s -> %s, S_c = %u\n", R.StepsApplied,
              R.InitialRead.toString().c_str(),
              R.FinalRead.toString().c_str(), R.FinalStreams);

  std::printf("\nschedule found:\n%s\n", toText(G).c_str());

  // Validate by execution.
  std::vector<double> Got = interpret(G, Kernels, 8);
  double MaxDiff = 0.0;
  for (std::size_t I = 0; I < Expected.size(); ++I)
    MaxDiff = std::fmax(MaxDiff, std::fabs(Expected[I] - Got[I]));
  std::printf("max |reference - autoscheduled| = %.3g %s\n\n", MaxDiff,
              MaxDiff < 1e-12 ? "(OK)" : "(BAD)");

  std::printf("--- ISCC script for the discovered schedule ---\n%s",
              codegen::exportIscc(G).c_str());
  return MaxDiff < 1e-12 ? 0 : 1;
}
