//===- graph/AutoScheduler.h - Cost-model-driven scheduling -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper positions the graph operations as a toolbox "intended to
/// reduce S_R, and keep S_c below a threshold" (Section 3.3), driven by a
/// performance expert through the visual interface. This module automates
/// that loop: a greedy search over the legal transformation space that
/// applies the producer-consumer or read-reduction fusion (with enabling
/// reschedules) yielding the largest S_R reduction, subject to the stream
/// budget, until no profitable move remains. On MiniFluxDiv it discovers
/// a schedule matching the hand-derived fuse-all-levels variant.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_GRAPH_AUTOSCHEDULER_H
#define LCDFG_GRAPH_AUTOSCHEDULER_H

#include "graph/Graph.h"
#include "support/Polynomial.h"

#include <string>
#include <vector>

namespace lcdfg {
namespace graph {

/// Search configuration.
struct AutoScheduleOptions {
  /// Upper bound on S_c (the prefetcher stream budget).
  unsigned MaxStreams = 4;
  /// Candidates: producer-consumer fusions, and read reductions if set.
  bool AllowReadReduction = true;
  /// Concrete size at which symbolic costs are compared.
  std::int64_t EvalAt = 64;
  /// Safety bound on the number of applied transformations.
  unsigned MaxSteps = 256;
};

/// Outcome of a search.
struct AutoScheduleResult {
  unsigned StepsApplied = 0;
  Polynomial InitialRead;
  Polynomial FinalRead;
  unsigned FinalStreams = 0;
  /// Human-readable description of each applied move.
  std::vector<std::string> Log;
};

/// Greedily optimizes \p G in place. Storage reduction is applied to
/// evaluate candidates and to the final graph.
AutoScheduleResult autoSchedule(Graph &G,
                                const AutoScheduleOptions &Options = {});

} // namespace graph
} // namespace lcdfg

#endif // LCDFG_GRAPH_AUTOSCHEDULER_H
