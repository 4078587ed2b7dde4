//===- exec/TaskGraph.h - Dependence-aware task scheduling ------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small task graph executed on the persistent thread pool by a
/// work-stealing list scheduler. Execution plans lower (tile x nest)
/// units to tasks here; the MiniFluxDiv driver reaches it through
/// external-only plans for its box/tile loops.
///
/// runList() keeps per-worker ready deques ordered by critical-path
/// priority (ties favor tasks that free temporaries); idle workers steal,
/// and an optional live-temporary budget defers tasks whose admission
/// would push the tracked footprint past the cap.
///
/// Each task runs exactly once and never before all its predecessors
/// completed, so a parallel run's externally observable result must equal
/// the serial run in task order — lcdfg-lint bit-compares the two (T007)
/// on every example config.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_TASKGRAPH_H
#define LCDFG_EXEC_TASKGRAPH_H

#include <cstdint>
#include <functional>
#include <vector>

namespace lcdfg {
namespace storage {
class FootprintTracker;
} // namespace storage

namespace exec {

/// Directed acyclic graph of tasks. Tasks run when every predecessor has
/// completed; independent tasks run concurrently.
class TaskGraph {
public:
  /// Knobs for runList().
  struct ListOptions {
    int Threads = 1;
    /// Live-temporary byte cap; 0 = unlimited. A positive budget requires
    /// Memory, and a budget no single task fits under is refused up front
    /// with E016 (before any task runs).
    std::int64_t MemBudget = 0;
    /// Footprint model consulted for admission and charged on
    /// admit/retire. May be null only when MemBudget is 0. Mutated under
    /// the scheduler's lock; the caller must not touch it during the run.
    storage::FootprintTracker *Memory = nullptr;
  };

  /// Adds a task and returns its id. \p Work receives the dense
  /// participant id of the thread running it (0 = the caller), usable as
  /// an index into per-worker scratch state.
  int addTask(std::function<void(int)> Work);

  /// Declares that \p After must not start before \p Before completed.
  void addDependence(int Before, int After);

  int size() const { return static_cast<int>(Tasks.size()); }

  /// Runs all tasks under the work-stealing list scheduler. Rethrows the
  /// first exception a task threw (tasks already running on other workers
  /// drain first; no new task starts after a failure). Raises E016 when
  /// the memory budget is infeasible — up front if a single task exceeds
  /// it, or mid-run if every remaining ready task is over budget with
  /// nothing in flight to free memory.
  void runList(const ListOptions &Opts);

  /// The longest-path-depth partition: Levels[L] holds the task ids whose
  /// longest dependence chain has length L. runList() uses it to reject
  /// cycles before anything runs; exposed for plan dumping and tests. Memoized — recomputed only after addTask /
  /// addDependence; the reference is invalidated by either.
  const std::vector<std::vector<int>> &wavefronts() const;

  /// Critical-path length per task (1 for sinks; the list scheduler's
  /// primary priority). Memoized alongside wavefronts().
  const std::vector<int> &heights() const;

private:
  struct Task {
    std::function<void(int)> Work;
    std::vector<int> Succs;
    int NumPreds = 0;
  };
  std::vector<Task> Tasks;

  /// Kahn levels + downward critical paths, computed together and reused
  /// by runList()'s cycle check and priority pass, plan dumping, and
  /// verify.
  void computeLevels() const;
  mutable std::vector<std::vector<int>> LevelsCache;
  mutable std::vector<int> HeightsCache;
  mutable bool CacheValid = false;
};

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_TASKGRAPH_H
