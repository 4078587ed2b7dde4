//===- bench/bench_fig6_small.cpp -----------------------------------------===//
//
// Reproduces Figure 6(a): MiniFluxDiv schedule variants over small (16^3)
// boxes across a thread sweep. Paper shape: the series-of-loops baseline is
// hard to beat at this size; fuse-among-directions is the only schedule
// that improves on it.
//
//===----------------------------------------------------------------------===//

#include "bench_common.h"

#include <cstdio>

using namespace lcdfg;
using namespace lcdfg::bench;
using namespace lcdfg::mfd;

int main() {
  Config Cfg = Config::fromEnvironment();
  Problem P = Cfg.smallProblem();
  std::printf("Figure 6(a): small boxes %d^3 x %d boxes (%ld cells), "
              "best of %d\n",
              P.BoxSize, P.NumBoxes, P.totalCells(), Cfg.Reps);

  std::vector<rt::Box> In = makeInputs(P, 0xf19a);
  std::vector<rt::Box> Out = makeOutputs(P);

  JsonReport Json;
  printHeader("Figure 6(a) — execution time vs threads",
              "variant / threads ...");
  std::vector<std::string> Cols{"variant"};
  for (int T : Cfg.threadSweep())
    Cols.push_back("T=" + std::to_string(T));
  printRow(Cols);
  for (Variant V : allVariants()) {
    std::vector<std::string> Row{variantName(V)};
    for (int T : Cfg.threadSweep()) {
      RunConfig Run;
      Run.Threads = T;
      double S = timeVariant(V, In, Out, Run, Cfg.Reps);
      Json.record(variantName(V), "T=" + std::to_string(T), S);
      Row.push_back(fmtSeconds(S));
    }
    printRow(Row);
  }
  std::printf("\npaper shape: at 16^3, fuse-among is the only variant "
              "beating the series baseline;\nstorage reduction matters "
              "little because every temporary already fits in cache.\n");

  // Scheduler timing on the two extremes of task granularity: the
  // single-assignment baseline (widest graph) and the fused+reduced
  // schedule (heaviest per-task work).
  timeSchedulerStrategies(Variant::SeriesSA, In, Out, Cfg, Json);
  timeSchedulerStrategies(Variant::FuseAllReduced, In, Out, Cfg, Json);

  timeCompiledSchedules(P.BoxSize, Cfg.Reps, Json);
  Json.write();
  return 0;
}
