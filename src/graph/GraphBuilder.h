//===- graph/GraphBuilder.h - M2DFG construction from chains ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a modified macro dataflow graph from an annotated loop chain
/// (the "procedure to generate M2DFGs given annotated source code" of the
/// contributions list). One statement node is created per loop nest and one
/// value node per referenced array; rows reflect the original series-of-
/// loops schedule.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_GRAPH_GRAPHBUILDER_H
#define LCDFG_GRAPH_GRAPHBUILDER_H

#include "graph/Graph.h"
#include "support/Status.h"

namespace lcdfg {
namespace graph {

/// Options controlling the initial layout.
struct BuildOptions {
  /// When true, consecutive nests whose names share the prefix before the
  /// last '_' (e.g. "Fx1_rho", "Fx1_u" -> "Fx1") are placed in the same row,
  /// reproducing the component columns of Figure 3. When false every nest
  /// gets its own row.
  bool GroupRowsByNamePrefix = true;
};

/// Builds the initial (series-of-loops schedule) M2DFG for \p Chain. The
/// chain must be finalized.
Graph buildGraph(const ir::LoopChain &Chain, const BuildOptions &Options = {});

/// Validating form of buildGraph: an E003-unknown-array or
/// E004-graph-invalid Status instead of a thrown StatusError when the
/// chain references undeclared arrays or the built graph fails verify().
support::Expected<Graph> tryBuildGraph(const ir::LoopChain &Chain,
                                       const BuildOptions &Options = {});

/// Returns the row-group label of a nest name: the prefix before the last
/// '_' when present ("Fx1_rho" -> "Fx1"), otherwise the whole name.
std::string rowGroupLabel(std::string_view NestName);

} // namespace graph
} // namespace lcdfg

#endif // LCDFG_GRAPH_GRAPHBUILDER_H
