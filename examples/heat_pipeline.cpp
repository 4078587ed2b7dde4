//===- examples/heat_pipeline.cpp -----------------------------------------===//
//
// A domain example beyond MiniFluxDiv: a 2D heat-diffusion pipeline of
// blur -> flux -> update stages, written as a loop chain. The example
// explores both fusion strategies with the cost model, picks the cheaper
// schedule, and validates the transformed execution against the original
// using the interpreter — exactly the workflow the paper proposes for a
// performance expert.
//
//   $ ./heat_pipeline [N]
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "codegen/Interpreter.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "graph/Transforms.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace lcdfg;
using poly::AffineExpr;
using poly::BoxSet;
using poly::Dim;

namespace {

/// blur(T) -> flux(blur) -> T' = T + k * d(flux)
ir::LoopChain buildHeatChain() {
  ir::LoopChain Chain("heat", "fuse");
  AffineExpr N = AffineExpr::var("N");
  BoxSet Cells({Dim{"y", AffineExpr(0), N - AffineExpr(1)},
                Dim{"x", AffineExpr(0), N - AffineExpr(1)}});
  BoxSet Faces({Dim{"y", AffineExpr(0), N - AffineExpr(1)},
                Dim{"x", AffineExpr(0), N}});

  ir::LoopNest Blur;
  Blur.Name = "blur";
  Blur.Domain = Cells.expanded(1, 1, 1); // one halo column each side
  Blur.Write = ir::Access{"smooth", {{0, 0}}};
  Blur.Reads = {ir::Access{"T", {{0, -1}, {0, 0}, {0, 1}}}};
  Chain.addNest(Blur);

  ir::LoopNest Flux;
  Flux.Name = "flux";
  Flux.Domain = Faces;
  Flux.Write = ir::Access{"flux", {{0, 0}}};
  Flux.Reads = {ir::Access{"smooth", {{0, -1}, {0, 0}}}};
  Chain.addNest(Flux);

  ir::LoopNest Update;
  Update.Name = "update";
  Update.Domain = Cells;
  Update.Write = ir::Access{"Tnext", {{0, 0}}};
  Update.Reads = {ir::Access{"flux", {{0, 0}, {0, 1}}},
                  ir::Access{"T", {{0, 0}}}};
  Chain.addNest(Update);
  Chain.finalize();
  return Chain;
}

void registerHeatKernels(ir::LoopChain &Chain,
                         codegen::KernelRegistry &Kernels) {
  Chain.nest(0).KernelId =
      Kernels.add([](const std::vector<double> &R, double) {
        return (R[0] + 2.0 * R[1] + R[2]) * 0.25;
      });
  Chain.nest(1).KernelId =
      Kernels.add([](const std::vector<double> &R, double) {
        return R[1] - R[0]; // gradient across the face
      });
  Chain.nest(2).KernelId =
      Kernels.add([](const std::vector<double> &R, double) {
        return R[2] + 0.2 * (R[1] - R[0]); // T + k * divergence
      });
}

std::vector<double> run(graph::Graph &G, codegen::KernelRegistry &Kernels,
                        std::int64_t N) {
  std::map<std::string, std::int64_t, std::less<>> Env{{"N", N}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, Env);
  G.chain().array("T").Extent->forEachPoint(
      Env, [&](const std::vector<std::int64_t> &P) {
        Store.at("T", P) =
            std::sin(0.3 * static_cast<double>(P[0])) +
            std::cos(0.2 * static_cast<double>(P[1]));
      });
  codegen::AstPtr Ast = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, Env),
                Kernels, Store);
  std::vector<double> Out;
  for (std::int64_t Y = 0; Y < N; ++Y)
    for (std::int64_t X = 0; X < N; ++X)
      Out.push_back(Store.at("Tnext", {Y, X}));
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::int64_t N = argc > 1 ? std::atoll(argv[1]) : 16;

  ir::LoopChain Chain = buildHeatChain();
  codegen::KernelRegistry Kernels;
  registerHeatKernels(Chain, Kernels);

  // Reference: the original series-of-loops schedule.
  graph::Graph Series = graph::buildGraph(Chain);
  std::printf("series schedule cost:\n%s\n",
              graph::computeCost(Series).toString().c_str());
  std::vector<double> Expected = run(Series, Kernels, N);

  // Candidate: fully fused with reduced storage.
  graph::Graph Fused = graph::buildGraph(Chain);
  auto Must = [](graph::TransformResult R) {
    if (!R) {
      std::fprintf(stderr, "transform failed: %s\n", R.Error.c_str());
      std::exit(1);
    }
  };
  Must(graph::fuseProducerConsumer(Fused, Fused.findStmt("blur"),
                                   Fused.findStmt("flux")));
  Must(graph::fuseProducerConsumer(Fused, Fused.findStmt("blur+flux"),
                                   Fused.findStmt("update")));
  storage::reduceStorage(Fused);
  graph::CostReport FusedCost = graph::computeCost(Fused);
  std::printf("fused schedule cost:\n%s\n", FusedCost.toString().c_str());
  std::printf("smooth buffer: %s, flux buffer: %s\n",
              Fused.value(Fused.findValue("smooth")).Size.toString().c_str(),
              Fused.value(Fused.findValue("flux")).Size.toString().c_str());

  std::vector<double> Got = run(Fused, Kernels, N);
  double MaxDiff = 0.0;
  for (std::size_t I = 0; I < Expected.size(); ++I)
    MaxDiff = std::fmax(MaxDiff, std::fabs(Expected[I] - Got[I]));
  std::printf("max |series - fused| over %zu cells: %.3g %s\n",
              Expected.size(), MaxDiff, MaxDiff < 1e-12 ? "(OK)" : "(BAD)");
  return MaxDiff < 1e-12 ? 0 : 1;
}
