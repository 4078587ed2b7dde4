//===- bench/bench_common.h - Shared benchmark harness ----------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the figure-reproduction harnesses: wall-clock timing,
/// environment-variable problem scaling, and row printing. Problem sizes
/// default to container-friendly values and scale up via:
///
///   MFD_CELLS      total cells per run        (default 2^21 ~ 2M)
///   MFD_LARGE_BOX  edge of the "large" boxes  (default 64; paper used 128)
///   MFD_REPS       timing repetitions         (default 3)
///   MFD_THREADS    max thread count swept     (default 4)
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_BENCH_BENCH_COMMON_H
#define LCDFG_BENCH_BENCH_COMMON_H

#include "exec/PlanRunner.h"
#include "minifluxdiv/Variants.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace lcdfg {
namespace bench {

/// Environment-scaled configuration shared by the MiniFluxDiv figures.
struct Config {
  long TotalCells;
  int LargeBox;
  int Reps;
  int MaxThreads;

  static Config fromEnvironment();

  mfd::Problem smallProblem() const {
    return mfd::Problem::smallBoxes(TotalCells);
  }
  mfd::Problem largeProblem() const {
    return mfd::Problem::largeBoxes(TotalCells, LargeBox);
  }
  std::vector<int> threadSweep() const;
};

/// Modulo-window widening factor used by the fuseAll-reduced compiled
/// schedule (widened windows let row batching cover whole rows; exact
/// windows would cap segments at the producer/consumer lag). Recorded in
/// the reports' "_meta" block.
inline constexpr unsigned FuseAllModuloWiden = 8;

/// Best-of-Reps wall-clock seconds of \p Fn (one warm-up first).
double timeBestOf(int Reps, const std::function<void()> &Fn);

/// Times one variant over \p In / \p Out.
double timeVariant(mfd::Variant V, const std::vector<rt::Box> &In,
                   std::vector<rt::Box> &Out, const mfd::RunConfig &Run,
                   int Reps);

/// Prints a header line followed by aligned rows; every harness routes its
/// output through this so the figures read uniformly.
void printHeader(const std::string &Title, const std::string &Columns);
void printRow(const std::vector<std::string> &Cells);

/// Formats seconds with 4 significant digits.
std::string fmtSeconds(double S);

/// Accumulates variant -> measurement-key -> seconds rows and writes them
/// as JSON to the path named by the BENCH_JSON environment variable (a
/// no-op when the variable is unset), so benchmark runs leave a machine-
/// readable trajectory next to the human-readable tables.
///
/// Every report opens with a "_meta" variant describing the run
/// (compiler, commit from the BENCH_COMMIT environment variable, and the
/// MFD_* problem-size knobs), which tools/bench_compare skips when it
/// diffs two reports.
class JsonReport {
public:
  void record(const std::string &Variant, const std::string &Key,
              double Seconds);
  /// Writes the report; returns false when BENCH_JSON is set but the file
  /// cannot be written.
  bool write() const;

private:
  std::vector<std::string> Order;
  std::map<std::string, std::map<std::string, double>> Rows;
};

/// Best-of-Reps seconds of one runPlan invocation (one warm-up first).
double timePlanRun(const exec::ExecutionPlan &Plan,
                   const codegen::KernelRegistry &Kernels,
                   storage::ConcreteStorage &Store,
                   const exec::RunOptions &Opts, int Reps);

/// Times the compiled-schedule execution paths of the 3D MiniFluxDiv
/// chain at box size \p N — the series-of-loops plan and the fuse-all +
/// reduced-storage AST plan — with row batching on and off, printing a
/// table and recording "batched_on"/"batched_off" rows into \p Json under
/// "series" and "fuseAll-reduced".
void timeCompiledSchedules(std::int64_t N, int Reps, JsonReport &Json);

/// Task-graph scheduler timing for one variant: times the
/// parallel-over-boxes plan under the list scheduler at T=2 and
/// T=MaxThreads, printing a table with max idle shares and recording
/// "list_T<n>" seconds plus informational "idle_list_T<n>" idle shares
/// (tools/bench_compare prints "idle"-prefixed keys but never gates them)
/// under the "sched-<variant>" report row.
void timeSchedulerStrategies(mfd::Variant V, const std::vector<rt::Box> &In,
                             std::vector<rt::Box> &Out, const Config &Cfg,
                             JsonReport &Json);

} // namespace bench
} // namespace lcdfg

#endif // LCDFG_BENCH_BENCH_COMMON_H
