//===- tests/graph/InterchangeTest.cpp ------------------------------------===//
//
// Loop interchange on fused statement nodes: Section 5.2 credits the tiled
// variant's improvement to exploring a "larger set of intra-tile
// schedules"; interchange is that knob. Rotating the z-direction fused
// node so z runs innermost collapses its plane-sized carry buffer to two
// scalars — and the interpreted execution stays exact.
//
//===----------------------------------------------------------------------===//

#include "graph/Transforms.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "codegen/Interpreter.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::graph;

namespace {

/// Fuses the z-direction rho chain of the 3D benchmark into one node.
struct FusedZ {
  ir::LoopChain Chain;
  Graph G;
  NodeId Node = InvalidNode;

  FusedZ() : Chain(mfd::buildChain3D()), G(buildGraph(Chain)) {
    EXPECT_TRUE(fuseProducerConsumer(G, G.findStmt("Fz1_rho"),
                                     G.findStmt("Fz2_rho")));
    EXPECT_TRUE(fuseProducerConsumer(G, G.findStmt("Fz1_rho+Fz2_rho"),
                                     G.findStmt("Dz_rho")));
    Node = G.findStmt("Fz1_rho+Fz2_rho+Dz_rho");
  }
};

} // namespace

TEST(Interchange, RejectsNonPermutations) {
  FusedZ F;
  EXPECT_FALSE(interchange(F.G, F.Node, {0, 1}));       // wrong arity
  EXPECT_FALSE(interchange(F.G, F.Node, {0, 0, 1}));    // repeated
  EXPECT_FALSE(interchange(F.G, F.Node, {0, 1, 7}));    // out of range
  EXPECT_FALSE(interchange(F.G, InvalidNode, {0, 1, 2}));
}

TEST(Interchange, IdentityClearsOverride) {
  FusedZ F;
  ASSERT_TRUE(interchange(F.G, F.Node, {2, 1, 0}));
  EXPECT_FALSE(F.G.stmt(F.Node).DimOrder.empty());
  ASSERT_TRUE(interchange(F.G, F.Node, {0, 1, 2}));
  EXPECT_TRUE(F.G.stmt(F.Node).DimOrder.empty());
}

TEST(Interchange, ShrinksThePlaneBufferToScalars) {
  FusedZ F;
  storage::reduceStorage(F.G);
  // Natural order (z, y, x): the z stencil's reuse distance is a plane.
  NodeId F2z = F.G.findValue("F2z_rho");
  ASSERT_TRUE(F.G.value(F2z).Internalized);
  EXPECT_EQ(F.G.value(F2z).Size.degree(), 2u);

  // Rotate z innermost: (y, x, z). The dependence (+1 in z) now has
  // stride one — two scalars suffice (the x-direction layout).
  ASSERT_TRUE(interchange(F.G, F.Node, {1, 2, 0}));
  storage::reduceStorage(F.G);
  EXPECT_EQ(F.G.value(F2z).Size.toString(), "2");
}

TEST(Interchange, RejectsOrdersThatNegateSkewedDependences) {
  // The library's own fusion produces componentwise non-negative
  // distances (every permutation stays legal), so build a node with a
  // skewed shift by hand: the (+1, -1) distance is lexicographically
  // positive under (y, x) but negative under (x, y).
  static ir::LoopChain Chain = [] {
    ir::LoopChain C("skewed");
    poly::AffineExpr N = poly::AffineExpr::var("N");
    poly::BoxSet Cells({poly::Dim{"y", poly::AffineExpr(0), N},
                        poly::Dim{"x", poly::AffineExpr(0), N}});
    ir::LoopNest A;
    A.Name = "A";
    A.Domain = Cells;
    A.Write = ir::Access{"a", {{0, 0}}};
    A.Reads = {ir::Access{"in", {{0, 0}}}};
    C.addNest(A);
    ir::LoopNest B;
    B.Name = "B";
    B.Domain = Cells;
    B.Write = ir::Access{"out", {{0, 0}}};
    B.Reads = {ir::Access{"a", {{0, 0}}}};
    C.addNest(B);
    C.finalize();
    return C;
  }();

  Graph G(Chain);
  NodeId In = G.addValueNode({/*Array=*/"in", Polynomial(1), Polynomial(1),
                              /*Persistent=*/true});
  NodeId AVal = G.addValueNode({"a", Polynomial(1), Polynomial(1), false});
  NodeId Out = G.addValueNode({"out", Polynomial(1), Polynomial(1), true});
  StmtNode Fused;
  Fused.Label = "A+B";
  Fused.Nests = {0, 1};
  Fused.Shifts = {{0, 0}, {1, -1}}; // consumer skewed by (+1, -1)
  Fused.Domain = Chain.nest(0).Domain;
  Fused.Row = 1;
  NodeId Node = G.addStmtNode(std::move(Fused));
  G.addReadEdge(In, Node);
  G.addReadEdge(AVal, Node);
  G.addWriteEdge(Node, AVal);
  G.addWriteEdge(Node, Out);

  // Dependence distance: (1, -1). Legal as scheduled...
  EXPECT_TRUE(interchange(G, Node, {0, 1}));
  // ...but reversing the loops makes it (-1, 1): rejected.
  TransformResult R = interchange(G, Node, {1, 0});
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("lexicographically negative"), std::string::npos);
}

TEST(Interchange, InterpretedExecutionUnchanged) {
  const std::int64_t N = 4;
  auto Run = [&](bool Rotate) {
    FusedZ F;
    if (Rotate) {
      EXPECT_TRUE(interchange(F.G, F.Node, {1, 2, 0}));
    }
    storage::reduceStorage(F.G);
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(F.Chain, Kernels);
    std::map<std::string, std::int64_t, std::less<>> Env{{"N", N}};
    storage::StoragePlan Plan = storage::StoragePlan::build(F.G);
    storage::ConcreteStorage Store(Plan, Env);
    const char *Comps[5] = {"rho", "u", "v", "w", "e"};
    for (const char *C : Comps)
      F.G.chain().array(std::string("in_") + C)
          .Extent->forEachPoint(Env,
                                [&](const std::vector<std::int64_t> &P) {
                                  double V = 1.0 + 0.01 * (P[0] * 9 +
                                                           P[1] * 5 +
                                                           P[2]);
                                  Store.at(std::string("in_") + C, P) = V;
                                });
    codegen::AstPtr Ast = codegen::generate(F.G);
    exec::runPlan(exec::ExecutionPlan::fromAst(F.G, *Ast, Store, Env),
                  Kernels, Store);
    std::vector<double> Out;
    for (std::int64_t Z = 0; Z < N; ++Z)
      for (std::int64_t Y = 0; Y < N; ++Y)
        for (std::int64_t X = 0; X < N; ++X)
          Out.push_back(Store.at("out_rho", {Z, Y, X}));
    return Out;
  };
  std::vector<double> Natural = Run(false);
  std::vector<double> Rotated = Run(true);
  ASSERT_EQ(Natural.size(), Rotated.size());
  for (std::size_t I = 0; I < Natural.size(); ++I)
    EXPECT_NEAR(Natural[I], Rotated[I], 1e-13) << I;
}
