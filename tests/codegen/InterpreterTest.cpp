//===- tests/codegen/InterpreterTest.cpp ----------------------------------===//
//
// End-to-end validation of the graph -> AST -> execution pipeline: every
// transformed schedule (with reduced storage mappings) must compute exactly
// what the original series-of-loops schedule computes.
//
//===----------------------------------------------------------------------===//

#include "codegen/Interpreter.h"

#include "codegen/Generator.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace lcdfg;
using namespace lcdfg::codegen;
using namespace lcdfg::graph;

namespace {

using Env = std::map<std::string, std::int64_t, std::less<>>;

double inputValue(const std::string &Array, std::int64_t Y, std::int64_t X) {
  // Deterministic, well-conditioned pseudo-random input.
  std::uint64_t H = std::hash<std::string>{}(Array) * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(Y * 131 + X * 7 + 1000);
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  return 0.5 + static_cast<double>(H >> 11) / 9007199254740992.0;
}

/// Runs one 2D MiniFluxDiv schedule through the interpreter and returns
/// the four output arrays flattened.
std::vector<double> runSchedule(Graph &G, const Env &E, bool Reduce) {
  if (Reduce)
    storage::reduceStorage(G);
  storage::StoragePlan Plan = storage::StoragePlan::build(G);
  storage::ConcreteStorage Store(Plan, E);

  std::int64_t N = E.at("N");
  KernelRegistry Kernels;
  // Kernel ids already assigned on the shared chain (see fixture).
  for (const std::string C : {"rho", "u", "v", "e"}) {
    const poly::BoxSet &Extent = *G.chain().array("in_" + C).Extent;
    Extent.forEachPoint(E, [&](const std::vector<std::int64_t> &P) {
      Store.at("in_" + C, P) = inputValue("in_" + C, P[0], P[1]);
    });
    // Outputs accumulate from the inputs' interior.
    for (std::int64_t Y = 0; Y < N; ++Y)
      for (std::int64_t X = 0; X < N; ++X)
        Store.at("out_" + C, {Y, X}) = inputValue("in_" + C, Y, X);
  }

  mfd::registerKernels(const_cast<ir::LoopChain &>(G.chain()), Kernels);
  AstPtr Root = generate(G);
  exec::runPlan(exec::ExecutionPlan::fromAst(G, *Root, Store, E),
                Kernels, Store);

  std::vector<double> Out;
  for (const std::string C : {"rho", "u", "v", "e"})
    for (std::int64_t Y = 0; Y < N; ++Y)
      for (std::int64_t X = 0; X < N; ++X)
        Out.push_back(Store.at("out_" + C, {Y, X}));
  return Out;
}

void expectClose(const std::vector<double> &A, const std::vector<double> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t I = 0; I < A.size(); ++I)
    EXPECT_NEAR(A[I], B[I], 1e-12 * std::max(1.0, std::fabs(A[I])))
        << "at flat index " << I;
}

struct Schedules {
  ir::LoopChain Chain = mfd::buildChain2D();
};

} // namespace

TEST(Interpreter, SeriesScheduleProducesFluxDifferences) {
  Schedules S;
  Graph G = buildGraph(S.Chain);
  Env E{{"N", 4}};
  std::vector<double> Out = runSchedule(G, E, /*Reduce=*/false);
  // Sanity: outputs differ from the raw inputs (the update happened) and
  // are finite.
  bool AnyChanged = false;
  std::size_t I = 0;
  for (const std::string C : {"rho", "u", "v", "e"})
    for (std::int64_t Y = 0; Y < 4; ++Y)
      for (std::int64_t X = 0; X < 4; ++X, ++I) {
        EXPECT_TRUE(std::isfinite(Out[I]));
        AnyChanged |= Out[I] != inputValue("in_" + C, Y, X);
      }
  EXPECT_TRUE(AnyChanged);
}

using RecipeAndSize = std::tuple<int, std::int64_t>;

class TransformedSchedule : public ::testing::TestWithParam<RecipeAndSize> {
};

TEST_P(TransformedSchedule, MatchesSeriesReference) {
  auto [Recipe, N] = GetParam();
  Env E{{"N", N}};

  Schedules Ref;
  Graph RefG = buildGraph(Ref.Chain);
  std::vector<double> Expected = runSchedule(RefG, E, /*Reduce=*/false);

  Schedules Test;
  Graph TestG = buildGraph(Test.Chain);
  switch (Recipe) {
  case 0:
    mfd::applyFuseAmongDirections(TestG);
    break;
  case 1:
    mfd::applyFuseWithinDirections(TestG);
    break;
  case 2:
    mfd::applyFuseAllLevels(TestG);
    break;
  }
  // Reduced storage: the transformed schedule runs through modulo-mapped
  // buffers sized by reuse distance.
  std::vector<double> Got = runSchedule(TestG, E, /*Reduce=*/true);
  expectClose(Expected, Got);
}

static std::string
transformedScheduleName(const ::testing::TestParamInfo<RecipeAndSize> &Info) {
  static const char *Names[] = {"fuseAmong", "fuseWithin", "fuseAll"};
  return std::string(Names[std::get<0>(Info.param)]) + "_N" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(RecipesAndSizes, TransformedSchedule,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(
                                                std::int64_t(2),
                                                std::int64_t(4),
                                                std::int64_t(7))),
                         transformedScheduleName);

TEST(Interpreter, UnreducedFusedScheduleAlsoMatches) {
  Env E{{"N", 5}};
  Schedules Ref;
  Graph RefG = buildGraph(Ref.Chain);
  std::vector<double> Expected = runSchedule(RefG, E, /*Reduce=*/false);

  Schedules Test;
  Graph TestG = buildGraph(Test.Chain);
  mfd::applyFuseAllLevels(TestG);
  std::vector<double> Got = runSchedule(TestG, E, /*Reduce=*/false);
  expectClose(Expected, Got);
}

TEST(Interpreter, KernelRegistryRejectsUnknownIds) {
  KernelRegistry Kernels;
  int Id = Kernels.add([](const std::vector<double> &, double) {
    return 0.0;
  });
  EXPECT_EQ(Id, 0);
  try {
    Kernels.get(7);
    FAIL() << "expected StatusError";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::KernelMissing);
    EXPECT_NE(E.status().message().find("unknown kernel"), std::string::npos);
  }
}
