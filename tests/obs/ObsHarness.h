//===- tests/obs/ObsHarness.h - Shared tracing-test fixtures ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Shared fixtures for the observability suites: a scope guard that leaves
// the process-wide tracer disabled and drained no matter how a test exits,
// and the fig1.lc lowering harness the conformance tests sweep (the same
// five configurations lcdfg-lint checks, located through the
// LCDFG_SOURCE_DIR compile definition).
//
//===----------------------------------------------------------------------===//

#ifndef LCDFG_TESTS_OBS_OBSHARNESS_H
#define LCDFG_TESTS_OBS_OBSHARNESS_H

#include "codegen/Generator.h"
#include "codegen/Interpreter.h"
#include "driver/Lowering.h"
#include "exec/ExecutionPlan.h"
#include "graph/AutoScheduler.h"
#include "graph/GraphBuilder.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "tiling/Tiling.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace lcdfg {
namespace obstest {

/// Arms the global tracer for one test and guarantees it is drained and
/// disabled afterwards, so a failing test cannot leak an enabled tracer
/// into the next one.
struct ScopedTracer {
  explicit ScopedTracer(std::size_t Capacity = obs::Tracer::DefaultCapacity) {
    obs::Tracer::global().enable(Capacity);
  }
  ~ScopedTracer() {
    (void)obs::Tracer::global().drain();
    obs::Tracer::global().disable();
  }
};

/// One compiled fig1 lowering ready to run: the storage plan, a fresh
/// concrete store with seeded persistent inputs, and the execution plan.
struct Lowering {
  storage::StoragePlan SPlan;
  storage::ConcreteStorage Store;
  exec::ExecutionPlan Plan;
};

/// The five fig1.lc configurations lcdfg-lint sweeps, by name.
enum class Fig1Config {
  Original,
  ScriptReducedWiden1,
  ScriptReducedWiden2,
  AutoscheduleReduced,
  Tiled4,
};

inline const char *fig1ConfigName(Fig1Config C) {
  switch (C) {
  case Fig1Config::Original:
    return "original";
  case Fig1Config::ScriptReducedWiden1:
    return "script-reduced-widen1";
  case Fig1Config::ScriptReducedWiden2:
    return "script-reduced-widen2";
  case Fig1Config::AutoscheduleReduced:
    return "autoschedule-reduced";
  case Fig1Config::Tiled4:
    return "tiled4";
  }
  return "?";
}

/// Loads examples/chains/fig1.lc (+ .script) once and lowers it on demand
/// into any of the lint-swept configurations.
class Fig1Harness {
public:
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  exec::ParamEnv Env;
  std::string Script;

  explicit Fig1Harness(std::int64_t SizeN = 8) : Env{{"N", SizeN}} {
    const std::string Dir = LCDFG_SOURCE_DIR "/examples/chains/";
    std::string Source = readAll(Dir + "fig1.lc");
    parser::ParseResult Parsed = parser::parseLoopChain(Source);
    if (!Parsed)
      throw std::runtime_error("fig1.lc: " + Parsed.Error);
    Chain = std::move(*Parsed.Chain);
    Script = readAll(Dir + "fig1.script");
    driver::assignStandInKernels(Chain, Kernels, /*Pure=*/false);
  }

  /// Builds the configuration's graph, storage, and plan, seeding the
  /// persistent inputs with the driver's deterministic pattern.
  Lowering lower(Fig1Config Config) {
    unsigned Widen = Config == Fig1Config::ScriptReducedWiden2 ? 2u : 1u;
    graph::Graph G = graph::buildGraph(Chain);
    switch (Config) {
    case Fig1Config::Original:
      break;
    case Fig1Config::ScriptReducedWiden1:
    case Fig1Config::ScriptReducedWiden2: {
      parser::ScriptResult R = parser::runScript(G, Script);
      if (!R)
        throw std::runtime_error("fig1.script: " + R.Error);
      storage::reduceStorage(G);
      break;
    }
    case Fig1Config::AutoscheduleReduced:
      (void)graph::autoSchedule(G, {});
      storage::reduceStorage(G);
      break;
    case Fig1Config::Tiled4:
      return lowerTiled(G, 4);
    }
    storage::StoragePlan SP =
        storage::StoragePlan::build(G, /*UseAllocation=*/true, Widen);
    storage::ConcreteStorage Store(SP, Env);
    driver::seedInputs(Chain, Store);
    codegen::AstPtr Ast = codegen::generate(G);
    exec::ExecutionPlan Plan =
        exec::ExecutionPlan::fromAst(G, *Ast, Store, Env);
    return {std::move(SP), std::move(Store), std::move(Plan)};
  }

private:
  static std::string readAll(const std::string &Path) {
    std::ifstream In(Path);
    if (!In)
      throw std::runtime_error("cannot read " + Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  Lowering lowerTiled(graph::Graph &G, std::int64_t TileSize) {
    const ir::LoopNest &Last = Chain.nest(Chain.numNests() - 1);
    std::vector<std::int64_t> Sizes(Last.Domain.rank(), TileSize);
    tiling::ChainTiling Tiling = tiling::overlappedTiling(Chain, Sizes, Env);
    storage::StoragePlan SP =
        storage::StoragePlan::build(G, /*UseAllocation=*/false);
    storage::ConcreteStorage Store(SP, Env);
    driver::seedInputs(Chain, Store);
    exec::ExecutionPlan Plan =
        exec::ExecutionPlan::fromTiling(Chain, Tiling, Store, Env, &G);
    return {std::move(SP), std::move(Store), std::move(Plan)};
  }
};

} // namespace obstest
} // namespace lcdfg

#endif // LCDFG_TESTS_OBS_OBSHARNESS_H
