//===- bench/bench_tiling_shapes.cpp --------------------------------------===//
//
// Reproduces Figure 5: the six tiling schedules of the 1D Fx -> Dx chain
// with nine faces, eight cells, and tile size four — classic tiling,
// overlapped tiling (Halide/PolyMage shape), and the shifted/fused
// variants, with redundancy accounting.
//
//===----------------------------------------------------------------------===//

#include "tiling/Tiling.h"

#include "bench_common.h"
#include "driver/Lowering.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "storage/ReuseDistance.h"

#include <cstdio>

using namespace lcdfg;
using namespace lcdfg::tiling;
using poly::AffineExpr;
using poly::BoxSet;
using poly::Dim;

namespace {

ir::LoopChain figure5Chain() {
  ir::LoopChain Chain("fig5");
  AffineExpr N = AffineExpr::var("N");
  ir::LoopNest Fx;
  Fx.Name = "Fx";
  Fx.Domain = BoxSet({Dim{"i", AffineExpr(0), N}});
  Fx.Write = ir::Access{"F", {{0}}};
  Fx.Reads = {ir::Access{"in", {{-1}, {0}}}};
  Chain.addNest(Fx);
  ir::LoopNest Dx;
  Dx.Name = "Dx";
  Dx.Domain = BoxSet({Dim{"i", AffineExpr(0), N - AffineExpr(1)}});
  Dx.Write = ir::Access{"out", {{0}}};
  Dx.Reads = {ir::Access{"F", {{0}, {1}}}};
  Chain.addNest(Dx);
  Chain.finalize();
  return Chain;
}

void printClassic(const ir::LoopChain &Chain, const ParamEnv &Env) {
  std::printf("\n-- Figure 5(b): classic tiling (barrier between stages) "
              "--\n");
  for (unsigned NI = 0; NI < Chain.numNests(); ++NI) {
    auto Tiles = classicTiles(Chain.nest(NI).Domain, {4}, Env);
    std::printf("%s:", Chain.nest(NI).Name.c_str());
    for (std::size_t T = 0; T < Tiles.size(); ++T) {
      std::printf(" |");
      Tiles[T].forEachPoint(Env, [](const std::vector<std::int64_t> &P) {
        std::printf(" %lld", static_cast<long long>(P[0]));
      });
    }
    std::printf("\n");
  }
}

/// Times the fig5 chain at a benchmark-sized N: the series-of-loops plan
/// and the overlapped tiling, each with row batching on and off.
void timeFig5Schedules(std::int64_t N, std::int64_t TileSize, int Reps,
                       bench::JsonReport &Json) {
  ir::LoopChain Chain = figure5Chain();
  codegen::KernelRegistry Kernels;
  int Sum = driver::addStandInKernel(Kernels, 2, /*Pure=*/false);
  Chain.nest(0).KernelId = Sum;
  Chain.nest(1).KernelId = Sum;

  exec::ParamEnv Env{{"N", N}};
  graph::Graph G = graph::buildGraph(Chain);
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  storage::ConcreteStorage Store(SPlan, Env);
  driver::seedInputs(Chain, Store);

  bench::printHeader("fig5 chain timing at N=" + std::to_string(N) +
                         ", tile " + std::to_string(TileSize) +
                         " — row batching on vs off",
                     "schedule / batched_off batched_on speedup");
  auto report = [&](const std::string &Name,
                    const exec::ExecutionPlan &Plan) {
    exec::RunOptions Opts;
    Opts.Batched = false;
    double Off = bench::timePlanRun(Plan, Kernels, Store, Opts, Reps);
    Opts.Batched = true;
    double On = bench::timePlanRun(Plan, Kernels, Store, Opts, Reps);
    Json.record(Name, "batched_off", Off);
    Json.record(Name, "batched_on", On);
    char Ratio[32];
    std::snprintf(Ratio, sizeof(Ratio), "%.2fx", Off / On);
    bench::printRow(
        {Name, bench::fmtSeconds(Off), bench::fmtSeconds(On), Ratio});
    // Optional jit- row, mirroring timeCompiledSchedules: absent (and not
    // gated) on machines without a host compiler.
    if (exec::effectiveKernelMode(exec::KernelMode::Jit) ==
            exec::KernelMode::Jit &&
        jit::Engine::global().available()) {
      Opts.Kernels = exec::KernelMode::Jit;
      double J = bench::timePlanRun(Plan, Kernels, Store, Opts, Reps);
      Json.record("jit-" + Name, "batched_jit", J);
      std::snprintf(Ratio, sizeof(Ratio), "%.2fx vs interp", On / J);
      bench::printRow({"jit-" + Name, bench::fmtSeconds(J), Ratio});
    }
  };

  exec::ExecutionPlan Series =
      exec::ExecutionPlan::fromChain(Chain, Store, Env, &G);
  report("series", Series);

  ChainTiling Tiling = overlappedTiling(Chain, {TileSize}, Env);
  exec::ExecutionPlan Tiled =
      exec::ExecutionPlan::fromTiling(Chain, Tiling, Store, Env, &G);
  report("overlapped-tile" + std::to_string(TileSize), Tiled);
}

} // namespace

int main() {
  ir::LoopChain Chain = figure5Chain();
  ParamEnv Env{{"N", 8}};

  std::printf("Figure 5 reproduction: Fx (9 faces) -> Dx (8 cells), tile "
              "size 4.\n");
  std::printf("\n-- Figure 5(a): original schedule --\nFx:");
  Chain.nest(0).Domain.forEachPoint(
      Env, [](const std::vector<std::int64_t> &P) {
        std::printf(" %lld", static_cast<long long>(P[0]));
      });
  std::printf("\nDx:");
  Chain.nest(1).Domain.forEachPoint(
      Env, [](const std::vector<std::int64_t> &P) {
        std::printf(" %lld", static_cast<long long>(P[0]));
      });
  std::printf("\n");

  printClassic(Chain, Env);

  ChainTiling Overlapped = overlappedTiling(Chain, {4}, Env);
  std::printf("\n-- Figure 5(c)/(f): overlapped tiling (each tile self-"
              "contained) --\n%s",
              renderTiling1D(Chain, Overlapped, Env).c_str());
  std::printf("redundant computation: %.3fx (Fx executed %lld of %lld "
              "required)\n",
              Overlapped.redundancy(),
              static_cast<long long>(Overlapped.ExecutedPoints.at(0)),
              static_cast<long long>(Overlapped.RequiredPoints.at(0)));
  std::printf("\nintra-tile schedule distinguishes the two variants:\n"
              "  fusion of tiles   (5c): full Fx tile buffer, vectorizable "
              "(Halide/PolyMage)\n"
              "  fusion within tiles (5f): shifted Fx/Dx interleaved, two "
              "scalars of storage\n");

  std::printf("\n-- tile-size sweep (redundancy) --\n");
  for (std::int64_t T : {2, 3, 4, 6, 8}) {
    ChainTiling CT = overlappedTiling(Chain, {T}, Env);
    std::printf("tile %lld: %zu tiles, redundancy %.3fx\n",
                static_cast<long long>(T), CT.Tiles.size(),
                CT.redundancy());
  }

  bench::Config Cfg = bench::Config::fromEnvironment();
  bench::JsonReport Json;
  timeFig5Schedules(/*N=*/Cfg.TotalCells, /*TileSize=*/4096, Cfg.Reps,
                    Json);
  Json.write();
  return 0;
}
