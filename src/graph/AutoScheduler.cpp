//===- graph/AutoScheduler.cpp --------------------------------------------===//

#include "graph/AutoScheduler.h"

#include "graph/CostModel.h"
#include "graph/Transforms.h"
#include "storage/ReuseDistance.h"

#include <algorithm>
#include <optional>
#include <sstream>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

/// A candidate move: optional enabling reschedules followed by a fusion.
struct Move {
  enum class Kind { ProducerConsumer, ReadReduction } MoveKind;
  NodeId A = InvalidNode;
  NodeId B = InvalidNode;
  std::vector<std::pair<NodeId, int>> PreReschedules;
  std::int64_t Cost = 0; // evaluated S_R after the move
  std::string Description;
};

/// The minimal row at which \p Stmt could legally execute: one past its
/// latest producer.
int minimalRow(const Graph &G, NodeId Stmt) {
  int Row = 1;
  for (const Edge *E : G.readsOf(Stmt)) {
    NodeId P = G.producerOf(E->From);
    if (P != InvalidNode && P != Stmt)
      Row = std::max(Row, G.stmt(P).Row + 1);
  }
  return Row;
}

/// Attempts to reschedule producers feeding \p A and \p B so a fusion at
/// min(row(A), row(B)) becomes legal; records the reschedules performed.
bool makeInputsAvailable(Graph &G, NodeId A, NodeId B,
                         std::vector<std::pair<NodeId, int>> &Applied) {
  int Target = std::min(G.stmt(A).Row, G.stmt(B).Row);
  // Iterate to a fixed point: moving one producer earlier may require its
  // own inputs to move first; bounded by the node count.
  for (unsigned Iter = 0; Iter < G.numStmtNodes(); ++Iter) {
    NodeId Offender = InvalidNode;
    for (NodeId Id : {A, B}) {
      for (const Edge *E : G.readsOf(Id)) {
        NodeId P = G.producerOf(E->From);
        if (P == InvalidNode || P == A || P == B)
          continue;
        if (G.stmt(P).Row >= Target) {
          Offender = P;
          break;
        }
      }
      if (Offender != InvalidNode)
        break;
    }
    if (Offender == InvalidNode)
      return true;
    int Row = minimalRow(G, Offender);
    if (Row >= Target)
      return false;
    if (!reschedule(G, Offender, Row))
      return false;
    Applied.emplace_back(Offender, Row);
  }
  return false;
}

/// Executes \p M on \p G; returns false when any step fails.
bool applyMove(Graph &G, const Move &M) {
  for (const auto &[Node, Row] : M.PreReschedules)
    if (!reschedule(G, Node, Row))
      return false;
  if (M.MoveKind == Move::Kind::ProducerConsumer)
    return static_cast<bool>(fuseProducerConsumer(G, M.A, M.B));
  return static_cast<bool>(fuseReadReduction(G, M.A, M.B));
}

/// S_R (evaluated) and S_c of \p G after storage reduction, computed on a
/// scratch copy.
std::pair<std::int64_t, unsigned> evaluate(const Graph &G,
                                           std::int64_t EvalAt) {
  Graph Copy = G;
  storage::reduceStorage(Copy);
  CostReport Cost = computeCost(Copy);
  return {Cost.TotalRead.evaluate(EvalAt), Cost.MaxStreams};
}

std::vector<NodeId> liveStmts(const Graph &G) {
  std::vector<NodeId> Live;
  for (NodeId S = 0; S < G.numStmtNodes(); ++S)
    if (!G.stmt(S).Dead)
      Live.push_back(S);
  return Live;
}

} // namespace

AutoScheduleResult graph::autoSchedule(Graph &G,
                                       const AutoScheduleOptions &Options) {
  AutoScheduleResult Result;
  Result.InitialRead = computeCost(G).TotalRead;
  std::int64_t Best = evaluate(G, Options.EvalAt).first;

  for (unsigned Step = 0; Step < Options.MaxSteps; ++Step) {
    // Producer-consumer fusions are considered before read reductions:
    // an RR merge of two nodes forecloses the PC chains through them
    // (greedy RR-first gets stuck in a local optimum on MiniFluxDiv),
    // while PC chains never block later read reductions.
    std::optional<Move> BestPC, BestRR;

    auto Consider = [&](Move M) {
      Graph Trial = G;
      if (!applyMove(Trial, M))
        return;
      auto [SR, SC] = evaluate(Trial, Options.EvalAt);
      if (SC > Options.MaxStreams || SR >= Best)
        return;
      std::optional<Move> &Slot =
          M.MoveKind == Move::Kind::ProducerConsumer ? BestPC : BestRR;
      if (!Slot || SR < Slot->Cost) {
        M.Cost = SR;
        Slot = std::move(M);
      }
    };

    std::vector<NodeId> Live = liveStmts(G);

    for (NodeId V = 0; V < G.numValueNodes(); ++V) {
      const ValueNode &Value = G.value(V);
      if (Value.Dead || Value.Persistent || Value.Internalized)
        continue;
      NodeId P = G.producerOf(V);
      if (P == InvalidNode)
        continue;
      for (const Edge *E : G.readersOf(V)) {
        if (E->To == P)
          continue;
        Move M;
        M.MoveKind = Move::Kind::ProducerConsumer;
        M.A = P;
        M.B = E->To;
        M.Description = "fusePC " + G.stmt(P).Label + " -> " +
                        G.stmt(E->To).Label;
        Consider(std::move(M));
      }
    }

    if (Options.AllowReadReduction) {
      for (std::size_t I = 0; I < Live.size(); ++I)
        for (std::size_t J = I + 1; J < Live.size(); ++J) {
          Move M;
          M.MoveKind = Move::Kind::ReadReduction;
          M.A = Live[I];
          M.B = Live[J];
          M.Description = "fuseRR " + G.stmt(Live[I]).Label + " + " +
                          G.stmt(Live[J]).Label;
          // Derive enabling reschedules on a scratch copy first.
          Graph Probe = G;
          std::vector<std::pair<NodeId, int>> Pre;
          if (!makeInputsAvailable(Probe, Live[I], Live[J], Pre))
            continue;
          M.PreReschedules = std::move(Pre);
          Consider(std::move(M));
        }
    }

    std::optional<Move> &BestMove = BestPC ? BestPC : BestRR;
    if (!BestMove)
      break;
    if (!applyMove(G, *BestMove))
      break;
    Best = BestMove->Cost;
    std::ostringstream Line;
    Line << BestMove->Description << " (S_R@" << Options.EvalAt << " -> "
         << BestMove->Cost << ")";
    Result.Log.push_back(Line.str());
    ++Result.StepsApplied;
  }

  storage::reduceStorage(G);
  CostReport Final = computeCost(G);
  Result.FinalRead = Final.TotalRead;
  Result.FinalStreams = Final.MaxStreams;
  G.compactRows();
  G.compactColumns();
  return Result;
}
