//===- tests/parser/ScriptRunnerTest.cpp ----------------------------------===//

#include "parser/ScriptRunner.h"

#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

struct Fixture {
  ir::LoopChain Chain;
  Graph G;
  Fixture() : Chain(mfd::buildChain2D()), G(buildGraph(Chain)) {}
};

} // namespace

TEST(ScriptRunner, Figure8RecipeAsScript) {
  // The fuse-within-directions recipe written in the script language.
  Fixture F;
  const char *Script = R"(
# x direction
fusepc Fx1_rho Fx2_rho
fusepc Fx1_rho+Fx2_rho Dx_rho
fusepc Fx1_v Fx2_v
fusepc Fx1_v+Fx2_v Dx_v
fusepc Fx1_e Fx2_e
fusepc Fx1_e+Fx2_e Dx_e
fusepc Fx2_u Dx_u
# y direction
fusepc Fy1_rho Fy2_rho
fusepc Fy1_rho+Fy2_rho Dy_rho
fusepc Fy1_u Fy2_u
fusepc Fy1_u+Fy2_u Dy_u
fusepc Fy1_e Fy2_e
fusepc Fy1_e+Fy2_e Dy_e
fusepc Fy2_v Dy_v
reduce
compact
cost
)";
  parser::ScriptResult R = parser::runScript(F.G, Script);
  ASSERT_TRUE(R) << R.Error << " at line " << R.Line;
  F.G.verify();
  // Same totals as the hand recipe (FigureCostsTest).
  CostReport Cost = computeCost(F.G);
  EXPECT_EQ(Cost.TotalRead.toString(), "16N^2+44N+18");
  // The cost command appended a report to the log.
  EXPECT_FALSE(R.Log.empty());
  EXPECT_NE(R.Log.back().find("S_R ="), std::string::npos);
}

TEST(ScriptRunner, RescheduleAndAutoSchedule) {
  Fixture F;
  parser::ScriptResult R = parser::runScript(F.G, R"(
reschedule Fy1_v 1
autoschedule 4
)");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Log.size(), 2u);
  EXPECT_NE(R.Log[1].find("autoschedule applied"), std::string::npos);
}

TEST(ScriptRunner, CommentsAndBlankLines) {
  Fixture F;
  parser::ScriptResult R = parser::runScript(F.G, R"(
# nothing but comments

   # indented comment
)");
  ASSERT_TRUE(R);
  EXPECT_TRUE(R.Log.empty());
}

TEST(ScriptRunner, StopsAtFirstFailure) {
  Fixture F;
  parser::ScriptResult R = parser::runScript(F.G, R"(
fusepc Fx1_rho Fx2_rho
fusepc NoSuchNode Fx2_v
fusepc Fx1_v Fx2_v
)");
  ASSERT_FALSE(R);
  EXPECT_EQ(R.Line, 3u);
  EXPECT_NE(R.Error.find("NoSuchNode"), std::string::npos);
  // The first command was applied; the third was not.
  EXPECT_NE(F.G.findStmt("Fx1_rho+Fx2_rho"), InvalidNode);
  EXPECT_NE(F.G.findStmt("Fx1_v"), InvalidNode);
}

TEST(ScriptRunner, ReportsIllegalTransforms) {
  Fixture F;
  parser::ScriptResult R =
      parser::runScript(F.G, "fusepc Fx1_u Fx2_u\n");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("also read by"), std::string::npos);
}

TEST(ScriptRunner, UnknownCommand) {
  Fixture F;
  parser::ScriptResult R = parser::runScript(F.G, "explode everything\n");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("unknown command"), std::string::npos);
}

TEST(ScriptRunner, FuseRRNoCollapseKeepsStreams) {
  Fixture F;
  NodeId In = F.G.findValue("in_rho");
  parser::ScriptResult R =
      parser::runScript(F.G, "fuserr Fx1_rho Fy1_rho nocollapse\n");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(F.G.outDegree(In), 2u);
  Fixture F2;
  ASSERT_TRUE(parser::runScript(F2.G, "fuserr Fx1_rho Fy1_rho\n"));
  EXPECT_EQ(F2.G.outDegree(F2.G.findValue("in_rho")), 1u);
}

TEST(ScriptRunner, InterchangeCommand) {
  ir::LoopChain Chain = mfd::buildChain3D();
  Graph G = buildGraph(Chain);
  parser::ScriptResult R = parser::runScript(G, R"(
fusepc Fz1_rho Fz2_rho
fusepc Fz1_rho+Fz2_rho Dz_rho
interchange Fz1_rho+Fz2_rho+Dz_rho 1 2 0
reduce
)");
  ASSERT_TRUE(R) << R.Error << " at line " << R.Line;
  // z runs innermost: the plane buffer collapsed to two scalars.
  EXPECT_EQ(G.value(G.findValue("F2z_rho")).Size.toString(), "2");
  // Bad permutation fails cleanly.
  parser::ScriptResult Bad =
      parser::runScript(G, "interchange Fz1_rho+Fz2_rho+Dz_rho 0 0 1\n");
  EXPECT_FALSE(Bad);
}

// Numeric arguments parse whole: a malformed or negative number fails at
// its line, naming the bad word, before any transform sees it.

TEST(ScriptRunner, RescheduleRejectsMalformedRow) {
  for (const char *Row : {"zz", "2x", "-1", "99999999999"}) {
    Fixture F;
    const int Before = F.G.stmt(F.G.findStmt("Fy1_v")).Row;
    parser::ScriptResult R = parser::runScript(
        F.G, std::string("cost\nreschedule Fy1_v ") + Row + "\n");
    ASSERT_FALSE(R) << Row;
    EXPECT_EQ(R.Line, 2u);
    EXPECT_NE(R.Error.find(std::string("bad row '") + Row + "'"),
              std::string::npos)
        << R.Error;
    EXPECT_EQ(F.G.stmt(F.G.findStmt("Fy1_v")).Row, Before);
  }
}

TEST(ScriptRunner, InterchangeRejectsMalformedDimension) {
  for (const char *Dim : {"a", "1b", "-1"}) {
    ir::LoopChain Chain = mfd::buildChain3D();
    Graph G = buildGraph(Chain);
    parser::ScriptResult R = parser::runScript(
        G, std::string("cost\ninterchange Fz1_rho 0 ") + Dim + " 2\n");
    ASSERT_FALSE(R) << Dim;
    EXPECT_EQ(R.Line, 2u);
    EXPECT_NE(R.Error.find(std::string("bad dimension '") + Dim + "'"),
              std::string::npos)
        << R.Error;
  }
}

TEST(ScriptRunner, AutoScheduleRejectsMalformedBudget) {
  for (const char *Budget : {"abc", "-1", "2x", "4294967296"}) {
    Fixture F;
    const std::string CostBefore = computeCost(F.G).TotalRead.toString();
    parser::ScriptResult R = parser::runScript(
        F.G, std::string("cost\nautoschedule ") + Budget + "\n");
    ASSERT_FALSE(R) << Budget;
    EXPECT_EQ(R.Line, 2u);
    EXPECT_NE(
        R.Error.find(std::string("bad stream budget '") + Budget + "'"),
        std::string::npos)
        << R.Error;
    EXPECT_EQ(computeCost(F.G).TotalRead.toString(), CostBefore)
        << "a rejected autoschedule moved the graph";
  }
}
