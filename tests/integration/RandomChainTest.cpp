//===- tests/integration/RandomChainTest.cpp ------------------------------===//
//
// Property/fuzz tests over randomly generated loop chains, crossing every
// layer: graph construction invariants, transformation soundness (any
// schedule the auto-scheduler produces computes the same values), storage
// allocation safety, tiling equivalence, and pragma round-tripping.
//
//===----------------------------------------------------------------------===//

#include "../common/RandomChain.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/GraphBuilder.h"
#include "parser/PragmaParser.h"
#include "parser/PragmaPrinter.h"
#include "storage/LivenessAllocator.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "tiling/TiledExecutor.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::testutil;

namespace {

using Env = std::map<std::string, std::int64_t, std::less<>>;

RandomChainOptions optionsFor(std::uint64_t Seed) {
  RandomChainOptions Options;
  Options.Seed = Seed;
  Options.Rank = 1 + Seed % 3;
  Options.NumNests = 3 + Seed % 5;
  Options.NumInputs = 1 + Seed % 2;
  return Options;
}

/// Fills inputs deterministically and runs the graph's schedule through
/// the interpreter; returns all persistent-output values.
std::vector<double> interpret(graph::Graph &G,
                              const codegen::KernelRegistry &Kernels,
                              std::int64_t NVal) {
  Env E{{"N", NVal}};
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, E);
  for (const std::string &Name : G.chain().arrayNames()) {
    if (G.chain().array(Name).Kind != ir::StorageKind::PersistentInput)
      continue;
    G.chain().array(Name).Extent->forEachPoint(
        E, [&](const std::vector<std::int64_t> &P) {
          double V = 1.0;
          for (std::size_t D = 0; D < P.size(); ++D)
            V += 0.01 * static_cast<double>((D + 2) * P[D] + 1);
          Store.at(Name, P) = V;
        });
  }
  codegen::AstPtr Ast = codegen::generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Ast, Store, E),
                Kernels, Store);
  std::vector<double> Out;
  for (const std::string &Name : G.chain().arrayNames()) {
    if (G.chain().array(Name).Kind != ir::StorageKind::PersistentOutput)
      continue;
    G.chain().array(Name).Extent->forEachPoint(
        E, [&](const std::vector<std::int64_t> &P) {
          Out.push_back(Store.at(Name, P));
        });
  }
  return Out;
}

} // namespace

class RandomChainProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomChainProperty, GraphBuildInvariants) {
  ir::LoopChain Chain = randomChain(optionsFor(GetParam()));
  graph::Graph G = graph::buildGraph(Chain);
  G.verify();
  // Every nest lives in exactly one statement node.
  for (unsigned I = 0; I < Chain.numNests(); ++I)
    EXPECT_NE(G.stmtOfNest(I), graph::InvalidNode);
  // Cost is non-negative and S_c bounded by the widest nest.
  graph::CostReport Cost = graph::computeCost(G);
  EXPECT_GE(Cost.TotalRead.evaluate(8), 0);
}

TEST_P(RandomChainProperty, AutoScheduledExecutionMatchesReference) {
  ir::LoopChain Chain = randomChain(optionsFor(GetParam()));
  codegen::KernelRegistry Kernels;
  registerGenericKernels(Chain, Kernels);

  graph::Graph Reference = graph::buildGraph(Chain);
  std::vector<double> Expected = interpret(Reference, Kernels, 6);

  graph::Graph Scheduled = graph::buildGraph(Chain);
  graph::AutoScheduleOptions Options;
  Options.EvalAt = 16;
  graph::AutoScheduleResult R = graph::autoSchedule(Scheduled, Options);
  (void)R;
  Scheduled.verify();
  std::vector<double> Got = interpret(Scheduled, Kernels, 6);

  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    ASSERT_NEAR(Expected[I], Got[I], 1e-12) << "flat index " << I;
}

TEST_P(RandomChainProperty, AllocatorNeverOverlapsLiveRanges) {
  ir::LoopChain Chain = randomChain(optionsFor(GetParam()));
  graph::Graph G = graph::buildGraph(Chain);
  storage::Allocation A = storage::allocateSpaces(G);

  struct Life {
    int Birth, Death;
  };
  std::map<std::string, Life> L;
  for (graph::NodeId V = 0; V < G.numValueNodes(); ++V) {
    const graph::ValueNode &Value = G.value(V);
    if (Value.Dead || Value.Persistent || G.readersOf(V).empty())
      continue;
    graph::NodeId P = G.producerOf(V);
    if (P == graph::InvalidNode)
      continue;
    Life Entry{G.stmt(P).Row, G.stmt(P).Row};
    for (const graph::Edge *E : G.readersOf(V))
      Entry.Death = std::max(Entry.Death, G.stmt(E->To).Row);
    L[Value.Array] = Entry;
  }
  for (const auto &[NameA, SpaceA] : A.ValueToSpace)
    for (const auto &[NameB, SpaceB] : A.ValueToSpace) {
      if (NameA >= NameB || SpaceA != SpaceB)
        continue;
      const Life &LA = L.at(NameA), &LB = L.at(NameB);
      EXPECT_TRUE(LA.Death < LB.Birth || LB.Death < LA.Birth)
          << NameA << " and " << NameB << " share space " << SpaceA;
    }
  // Fitting: every value fits its space.
  for (const auto &[Name, Space] : A.ValueToSpace)
    EXPECT_FALSE(A.Spaces[Space].Capacity.asymptoticallyLess(
        G.value(G.findValue(Name)).Size))
        << Name;
}

TEST_P(RandomChainProperty, TiledExecutionMatchesUntiled) {
  RandomChainOptions Options = optionsFor(GetParam());
  ir::LoopChain Chain = randomChain(Options);
  codegen::KernelRegistry Kernels;
  registerGenericKernels(Chain, Kernels);
  graph::Graph G = graph::buildGraph(Chain);
  storage::StoragePlan Plan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  tiling::ParamEnv E{{"N", 6}};

  auto Fill = [&](storage::ConcreteStorage &Store) {
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentInput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          E, [&](const std::vector<std::int64_t> &P) {
            double V = 2.0;
            for (std::size_t D = 0; D < P.size(); ++D)
              V += 0.02 * static_cast<double>(P[D]);
            Store.at(Name, P) = V;
          });
    }
  };
  auto Collect = [&](storage::ConcreteStorage &Store) {
    std::vector<double> Out;
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentOutput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          E, [&](const std::vector<std::int64_t> &P) {
            Out.push_back(Store.at(Name, P));
          });
    }
    return Out;
  };

  storage::ConcreteStorage Ref(Plan, E);
  Fill(Ref);
  tiling::executeUntiled(Chain, Kernels, Ref, E);
  std::vector<double> Expected = Collect(Ref);

  std::vector<std::int64_t> Tiles(Options.Rank, 3);
  tiling::ChainTiling Tiling = tiling::overlappedTiling(Chain, Tiles, E);
  storage::ConcreteStorage Store(Plan, E);
  Fill(Store);
  tiling::executeTiled(Chain, Tiling, Kernels, Store, E);
  std::vector<double> Got = Collect(Store);

  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    ASSERT_DOUBLE_EQ(Expected[I], Got[I]) << "flat index " << I;
}

TEST_P(RandomChainProperty, PragmaRoundTrip) {
  ir::LoopChain Chain = randomChain(optionsFor(GetParam()));
  std::string Text = parser::printPragmas(Chain);
  parser::ParseResult R = parser::parseLoopChain(Text);
  ASSERT_TRUE(R) << R.Error << "\n" << Text;
  ASSERT_EQ(Chain.numNests(), R.Chain->numNests());
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    EXPECT_EQ(Chain.nest(I).Domain, R.Chain->nest(I).Domain);
    EXPECT_EQ(Chain.nest(I).Write.Offsets, R.Chain->nest(I).Write.Offsets);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainProperty,
                         ::testing::Range<std::uint64_t>(1, 25));
