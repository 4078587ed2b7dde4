//===- graph/GraphBuilder.cpp ---------------------------------------------===//

#include "graph/GraphBuilder.h"

#include "support/Errors.h"
#include "support/Status.h"

#include <map>

using namespace lcdfg;
using namespace lcdfg::graph;

support::Expected<Graph> graph::tryBuildGraph(const ir::LoopChain &Chain,
                                              const BuildOptions &Options) {
  auto R = support::tryInvoke([&] { return buildGraph(Chain, Options); });
  if (!R)
    return R.takeError().withContext("building M2DFG for chain " +
                                     Chain.name());
  return R;
}

std::string graph::rowGroupLabel(std::string_view NestName) {
  auto Pos = NestName.rfind('_');
  if (Pos == std::string_view::npos || Pos == 0)
    return std::string(NestName);
  return std::string(NestName.substr(0, Pos));
}

Graph graph::buildGraph(const ir::LoopChain &Chain,
                        const BuildOptions &Options) {
  Graph G(Chain);

  // Value nodes: one per referenced array, sized in N by its extent; pure
  // inputs by their first reader's footprint, matching the paper's labels
  // (MiniFluxDiv inputs read N^2+4N, the x-direction footprint).
  std::map<std::string, NodeId, std::less<>> ValueIds;
  for (const std::string &Name : Chain.arrayNames()) {
    const ir::ArrayInfo &Info = Chain.array(Name);
    ValueNode V;
    V.Array = Name;
    V.OriginalSize = Chain.valueSize(Name, "N");
    if (Info.Kind == ir::StorageKind::PersistentInput) {
      for (unsigned I = 0; I < Chain.numNests(); ++I) {
        const ir::LoopNest &Nest = Chain.nest(I);
        std::optional<poly::BoxSet> FP;
        for (unsigned R = 0; R < Nest.Reads.size(); ++R)
          if (Nest.Reads[R].Array == Name)
            FP = FP ? FP->hull(Nest.readFootprint(R))
                    : Nest.readFootprint(R);
        if (FP) {
          V.OriginalSize = FP->cardinality("N");
          break;
        }
      }
    }
    V.Size = V.OriginalSize;
    V.Persistent = Info.Kind != ir::StorageKind::Temporary;
    ValueIds[Name] = G.addValueNode(std::move(V));
  }

  // Statement nodes in program order; row grouping by name prefix.
  int Row = 0;
  int Col = 0;
  std::string PrevGroup;
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    const ir::LoopNest &Nest = Chain.nest(I);
    std::string Group = Options.GroupRowsByNamePrefix
                            ? rowGroupLabel(Nest.Name)
                            : Nest.Name;
    if (I == 0 || Group != PrevGroup) {
      ++Row;
      Col = 0;
      PrevGroup = Group;
    }
    StmtNode S;
    S.Label = Nest.Name;
    S.Nests = {I};
    S.Shifts = {std::vector<std::int64_t>(Nest.Domain.rank(), 0)};
    S.Domain = Nest.Domain;
    S.Row = Row;
    S.Col = Col++;
    NodeId StmtId = G.addStmtNode(std::move(S));

    for (const ir::Access &R : Nest.Reads) {
      auto It = ValueIds.find(R.Array);
      if (It == ValueIds.end())
        support::raise(support::ErrorCode::UnknownArray,
                       "graph build: unknown array " + R.Array);
      G.addReadEdge(It->second, StmtId);
    }
    auto It = ValueIds.find(Nest.Write.Array);
    if (It == ValueIds.end())
      support::raise(support::ErrorCode::UnknownArray,
                     "graph build: unknown array " + Nest.Write.Array);
    G.addWriteEdge(StmtId, It->second);
  }

  // Place value nodes: inputs in row 0, otherwise the producer's row.
  for (NodeId V = 0; V < G.numValueNodes(); ++V) {
    NodeId Producer = G.producerOf(V);
    G.value(V).Row = Producer == InvalidNode ? 0 : G.stmt(Producer).Row;
  }

  G.verify();
  return G;
}
