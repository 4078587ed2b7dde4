//===- exec/PlanRunner.h - Execute compiled plans ---------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs an ExecutionPlan against concrete storage: serially in task order,
/// or in parallel on the thread pool — dependence-respecting wavefronts of
/// nest tasks for untiled plans, whole tiles as worker units (with
/// non-persistent spaces privatized per worker) for tile-parallel plans.
/// The runner doubles as the observability layer: per-node wall time and
/// per-edge read counters that can be diffed against graph::Traffic and
/// the symbolic S_R totals.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_PLANRUNNER_H
#define LCDFG_EXEC_PLANRUNNER_H

#include "codegen/Interpreter.h"
#include "exec/ExecutionPlan.h"
#include "storage/LivenessAllocator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lcdfg {
namespace jit {
class Engine;
} // namespace jit
namespace exec {

/// Subcodes carried on E013-guard-tripped statuses, naming which hardened
/// guard fired. The degradation ladder classifies its L004/L005 descents
/// from these instead of parsing the human-readable message.
inline constexpr const char *GuardSubcodeRedzone = "redzone";
inline constexpr const char *GuardSubcodeNanGuard = "nan-guard";

/// Runtime measurements of one plan execution.
struct PlanStats {
  /// Per statement node (instructions aggregated by label, in first-run
  /// order).
  struct NodeStat {
    std::string Label;
    double Seconds = 0.0;
    std::int64_t Points = 0;   ///< Statement instances executed.
    std::int64_t RawReads = 0; ///< Operand loads performed.
  };
  std::vector<NodeStat> Nodes;

  /// Per instrumented read edge. Distinct counts the elements of the
  /// value array the consumer touched — the quantity graph::Traffic
  /// enumerates and S_R models; Raw counts every load through the edge.
  struct EdgeStat {
    std::string Array;
    std::string Consumer;
    unsigned Multiplicity = 1;
    std::int64_t Distinct = 0;
    std::int64_t Raw = 0;
    /// The traffic the edge contributes under the paper's model: a
    /// collapsed edge streams its footprint once, an uncollapsed one once
    /// per statement set.
    std::int64_t total() const { return Distinct * Multiplicity; }
  };
  std::vector<EdgeStat> Edges;

  /// Per-participant totals. The Collector always accumulates these (the
  /// merge into Nodes used to discard the breakdown), so --metrics at T>1
  /// can show load imbalance; index = participant id. Under serial or
  /// stats-collecting runs there is exactly one entry.
  struct WorkerStat {
    double Seconds = 0.0;      ///< Sum of task wall times on this worker.
    std::int64_t Tasks = 0;    ///< Plan tasks this worker ran.
    std::int64_t Points = 0;   ///< Statement instances it executed.
    std::int64_t RawReads = 0; ///< Operand loads it performed.
  };
  std::vector<WorkerStat> Workers;

  double Seconds = 0.0; ///< Whole-plan wall time.

  int ThreadsRequested = 1; ///< RunOptions::Threads after the env cap.
  int ThreadsUsed = 1;      ///< Participants that actually ran the plan.
  /// True when CollectStats forced the run onto one thread; wall times
  /// from such a run must not be read as parallel numbers.
  bool SerializedForStats = false;

  /// Sum of per-edge totals (the measured counterpart of S_R).
  std::int64_t totalRead() const;

  /// Fraction of the run's wall time participant \p W spent not executing
  /// tasks, in [0, 1] (0 when wall time is unknown). Unlike the max/min
  /// busy-seconds ratio this is meaningful even when one worker did
  /// almost nothing: an idle share of 0.75 reads as "this worker was
  /// useful a quarter of the run", where a busy-ratio blows up to
  /// infinity.
  double idleShare(std::size_t W) const;
  /// Largest idleShare over all participants (0 when Workers is empty) —
  /// the scheduler-comparison figure bench_compare reports.
  double maxIdleShare() const;

  std::string toString() const;
};

/// The task-graph strategy: parallel runs always dispatch through the
/// work-stealing list scheduler (TaskGraph::runList). Kept only as the
/// type of RunOptions::Scheduler; see there.
enum class SchedulerKind { List };

/// Where batched statement bodies come from.
enum class KernelMode {
  Interp, ///< The C++ bodies registered in the KernelRegistry (default).
  Jit,    ///< Shape-specialized bodies compiled at run time (src/jit);
          ///  statements the engine cannot specialize keep the
          ///  interpreted body, so Jit is always safe to request.
};

/// Stable printable name ("interp" / "jit").
std::string_view kernelModeName(KernelMode K);

/// Applies the LCDFG_JIT environment override (values "on"/"jit" force
/// Jit, "off"/"0"/"interp" force Interp; anything else is ignored) to
/// \p Requested, for the CI kernel matrix.
KernelMode effectiveKernelMode(KernelMode Requested);

/// Execution options.
struct RunOptions {
  /// Parallelism budget (participants). 1 = serial in task order. The
  /// LCDFG_THREADS environment variable caps this further.
  int Threads = 1;
  /// Collect per-edge element counters (forces serial execution; timing
  /// alone is always collected).
  bool CollectStats = false;
  /// Execute through row-batched kernels where the nest compiles to a
  /// RowPlan and every kernel has a batched body; instructions that do not
  /// qualify fall back to the scalar interpreter. Stats runs always use
  /// the scalar path (it is the element-counting oracle).
  bool Batched = true;
  /// Hardened mode: run against canary-padded (redzone) shadow buffers
  /// with NaN-poisoned temporaries. After the run the redzones are checked
  /// and the persistent spaces scanned for NaN (a poisoned temporary that
  /// leaked into an output exposes a read-before-write in the schedule);
  /// any violation raises an E013-guard-tripped StatusError and the
  /// caller's storage is left untouched. On success the persistent spaces
  /// are copied back.
  bool Harden = false;
  /// Read by nothing: parallel runs always use the list scheduler. Kept
  /// only so the e2ebench driver, which assigns it, keeps compiling; the
  /// next change to that benchmark drops the field and SchedulerKind.
  SchedulerKind Scheduler = SchedulerKind::List;
  /// Live-temporary byte cap for the list scheduler; 0 = unlimited. Only
  /// the untiled parallel path models storage footprint (tile-parallel
  /// runs privatize their temporaries per worker; external plans own no
  /// storage), so the budget applies there — elsewhere a nonzero budget
  /// raises E016-mem-budget-infeasible rather than silently not binding.
  std::int64_t MemBudget = 0;
  /// Batched-body provenance (LCDFG_JIT overrides). Only consulted on the
  /// batched path; statements the JIT cannot specialize silently keep
  /// their interpreted bodies (the ladder reports the downgrade as L008).
  KernelMode Kernels = KernelMode::Interp;
  /// JIT engine used when Kernels == Jit; nullptr resolves to the
  /// process-wide jit::Engine::global(). Tests inject private engines
  /// (temp cache dirs, dead compilers) here.
  jit::Engine *Jit = nullptr;
};

/// Runs \p Plan against \p Store. Every statement record's kernel must be
/// registered in \p Kernels. Returns the stats report (edge counters only
/// populated under Opts.CollectStats).
PlanStats runPlan(const ExecutionPlan &Plan,
                  const codegen::KernelRegistry &Kernels,
                  storage::ConcreteStorage &Store, const RunOptions &Opts = {});

/// Convenience for plans consisting solely of external tasks (no kernels,
/// no storage).
PlanStats runPlan(const ExecutionPlan &Plan, const RunOptions &Opts = {});

/// Concrete footprint model of \p Plan against \p Store: space sizes from
/// the store's backing buffers, per-task touch sets from the plan's
/// statement streams. The list scheduler builds one per budgeted run; the
/// serving layer builds one per cached plan so admission control can
/// charge a request its serial high-water bytes before any buffer is
/// allocated.
storage::FootprintTracker
buildFootprintTracker(const ExecutionPlan &Plan,
                      const storage::ConcreteStorage &Store);

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_PLANRUNNER_H
