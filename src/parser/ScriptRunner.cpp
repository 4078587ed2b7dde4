//===- parser/ScriptRunner.cpp --------------------------------------------===//

#include "parser/ScriptRunner.h"

#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/Transforms.h"
#include "storage/ReuseDistance.h"
#include "support/StringUtils.h"

#include <limits>
#include <sstream>

using namespace lcdfg;
using namespace lcdfg::parser;
using graph::Graph;
using graph::InvalidNode;
using graph::NodeId;

namespace {

struct Command {
  std::vector<std::string> Words;
  unsigned Line = 0;
};

std::vector<Command> tokenize(std::string_view Script) {
  std::vector<Command> Commands;
  unsigned LineNo = 0;
  std::size_t Start = 0;
  for (std::size_t I = 0; I <= Script.size(); ++I) {
    if (I != Script.size() && Script[I] != '\n')
      continue;
    ++LineNo;
    std::string_view Line = Script.substr(Start, I - Start);
    Start = I + 1;
    if (auto Hash = Line.find('#'); Hash != std::string_view::npos)
      Line = Line.substr(0, Hash);
    Line = trim(Line);
    if (Line.empty())
      continue;
    Command Cmd;
    Cmd.Line = LineNo;
    for (const std::string &W : split(Line, ' '))
      if (!W.empty())
        Cmd.Words.push_back(W);
    Commands.push_back(std::move(Cmd));
  }
  return Commands;
}

ScriptResult fail(std::string Msg, unsigned Line, ScriptResult Result) {
  Result.Ok = false;
  Result.Error = std::move(Msg);
  Result.Line = Line;
  return Result;
}

/// Parses \p Word whole (parseInt) as an integer in [0, INT_MAX]: "abc",
/// "2x" and "-1" are errors, not 0, 2 and a wrapped unsigned.
bool countArg(const std::string &Word, std::int64_t &Out) {
  return parseInt(Word, Out) && Out >= 0 &&
         Out <= std::numeric_limits<int>::max();
}

std::string badArg(const char *What, const std::string &Word) {
  return std::string("bad ") + What + " '" + Word +
         "': expected a non-negative integer";
}

} // namespace

ScriptResult parser::runScript(Graph &G, std::string_view Script) {
  ScriptResult Result;

  auto Stmt = [&](const std::string &Label) {
    return G.findStmt(Label);
  };
  auto Value = [&](const std::string &Array) {
    return G.findValue(Array);
  };

  for (const Command &Cmd : tokenize(Script)) {
    const std::vector<std::string> &W = Cmd.Words;
    const std::string &Op = W[0];

    auto RequireArgs = [&](std::size_t Count) {
      return W.size() == Count + 1;
    };
    auto LogOk = [&](const std::string &What) {
      Result.Log.push_back(What);
    };

    if (Op == "reschedule") {
      if (!RequireArgs(2))
        return fail("reschedule expects <stmt> <row>", Cmd.Line, Result);
      NodeId S = Stmt(W[1]);
      if (S == InvalidNode)
        return fail("no statement node named " + W[1], Cmd.Line, Result);
      std::int64_t Row;
      if (!countArg(W[2], Row))
        return fail(badArg("row", W[2]), Cmd.Line, Result);
      graph::TransformResult R =
          graph::reschedule(G, S, static_cast<int>(Row));
      if (!R)
        return fail(R.Error, Cmd.Line, Result);
      LogOk("rescheduled " + W[1] + " to row " + W[2]);
    } else if (Op == "fusepc" || Op == "fuserr") {
      bool Collapse = true;
      if (W.size() == 4 && W[3] == "nocollapse" && Op == "fuserr") {
        Collapse = false;
      } else if (!RequireArgs(2)) {
        return fail(Op + " expects <a> <b>", Cmd.Line, Result);
      }
      NodeId A = Stmt(W[1]), B = Stmt(W[2]);
      if (A == InvalidNode)
        return fail("no statement node named " + W[1], Cmd.Line, Result);
      if (B == InvalidNode)
        return fail("no statement node named " + W[2], Cmd.Line, Result);
      graph::TransformResult R =
          Op == "fusepc" ? graph::fuseProducerConsumer(G, A, B)
                         : graph::fuseReadReduction(G, A, B, Collapse);
      if (!R)
        return fail(R.Error, Cmd.Line, Result);
      LogOk(Op + " " + W[1] + " " + W[2]);
    } else if (Op == "collapse") {
      if (!RequireArgs(2))
        return fail("collapse expects <array> <stmt>", Cmd.Line, Result);
      NodeId V = Value(W[1]);
      NodeId S = Stmt(W[2]);
      if (V == InvalidNode)
        return fail("no value node named " + W[1], Cmd.Line, Result);
      if (S == InvalidNode)
        return fail("no statement node named " + W[2], Cmd.Line, Result);
      graph::TransformResult R = graph::collapseReads(G, V, S);
      if (!R)
        return fail(R.Error, Cmd.Line, Result);
      LogOk("collapsed reads of " + W[1] + " into " + W[2]);
    } else if (Op == "interchange") {
      if (W.size() < 3)
        return fail("interchange expects <stmt> <dim indices...>", Cmd.Line,
                    Result);
      NodeId S = Stmt(W[1]);
      if (S == InvalidNode)
        return fail("no statement node named " + W[1], Cmd.Line, Result);
      std::vector<unsigned> Order;
      for (std::size_t I = 2; I < W.size(); ++I) {
        std::int64_t Dim;
        if (!countArg(W[I], Dim))
          return fail(badArg("dimension", W[I]), Cmd.Line, Result);
        Order.push_back(static_cast<unsigned>(Dim));
      }
      graph::TransformResult R = graph::interchange(G, S, Order);
      if (!R)
        return fail(R.Error, Cmd.Line, Result);
      LogOk("interchanged " + W[1]);
    } else if (Op == "reduce") {
      auto Reduced = storage::reduceStorage(G);
      LogOk("reduced storage of " + std::to_string(Reduced.size()) +
            " internalized value sets");
    } else if (Op == "autoschedule") {
      graph::AutoScheduleOptions Options;
      std::int64_t Budget = Options.MaxStreams;
      if (W.size() == 2 && !countArg(W[1], Budget))
        return fail(badArg("stream budget", W[1]), Cmd.Line, Result);
      if (W.size() > 2)
        return fail("autoschedule expects at most one argument", Cmd.Line,
                    Result);
      Options.MaxStreams = static_cast<unsigned>(Budget);
      graph::AutoScheduleResult R = graph::autoSchedule(G, Options);
      LogOk("autoschedule applied " + std::to_string(R.StepsApplied) +
            " moves: S_R " + R.InitialRead.toString() + " -> " +
            R.FinalRead.toString());
    } else if (Op == "compact") {
      G.compactRows();
      G.compactColumns();
      LogOk("compacted layout");
    } else if (Op == "cost") {
      std::ostringstream OS;
      OS << graph::computeCost(G).toString();
      LogOk(OS.str());
    } else {
      return fail("unknown command '" + Op + "'", Cmd.Line, Result);
    }
  }
  return Result;
}
