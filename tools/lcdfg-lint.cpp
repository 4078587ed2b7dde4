//===- tools/lcdfg-lint.cpp - Static legality sweep -----------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Runs the static legality verifier over the repository's schedule corpus:
// every example chain (original, scripted, auto-scheduled, storage-reduced,
// widened, and overlap-tiled lowerings) and every MiniFluxDiv recipe. Each
// lowering is compiled to an ExecutionPlan and checked for storage
// clobbers, static races, batching-cap safety, lost dependences, and tile
// privatization holes.
//
//   lcdfg-lint [--strict] [--json] [--trace] [--jit-static] [--size=N]
//              [<chains-dir>]
//     --strict   exit nonzero when any configuration reports an ERROR
//     --json     emit one JSON object per line instead of text
//     --trace    execute each statically-clean configuration with the span
//                tracer armed — serial task order as the reference, then
//                the list scheduler at 2/4 threads — folding the trace
//                conformance check (obs::checkTrace) and the parallel
//                output bit-compare (T007) into its report
//     --jit-static
//                statically validate every JIT emission each configuration
//                would compile (verify::KernelVerifier, K codes) — purely
//                symbolic, no host compiler is invoked
//     --size=N   concrete size for the chain-file sweeps (default 8)
//
//===----------------------------------------------------------------------===//

#include "driver/Lowering.h"
#include "exec/ExecutionPlan.h"
#include "graph/AutoScheduler.h"
#include "graph/GraphBuilder.h"
#include "exec/PlanRunner.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "obs/TraceCheck.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "tiling/Tiling.h"
#include "verify/KernelVerifier.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <functional>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace lcdfg;

namespace {

struct LintReport {
  bool Json = false;
  int Runs = 0;
  int RunsWithErrors = 0;
  int CompileFailures = 0;
  std::size_t Errors = 0, Warnings = 0, Notes = 0;

  /// A configuration whose lowering itself failed: the recipe could not be
  /// compiled to a plan at all. Reported in the common Status vocabulary
  /// (E00x code + context chain) rather than aborting the sweep.
  void fail(const std::string &Name, const support::Status &S) {
    ++Runs;
    ++RunsWithErrors;
    ++CompileFailures;
    if (Json) {
      std::printf("{\"config\":\"%s\",\"error\":%s}\n", Name.c_str(),
                  S.toJson().c_str());
      return;
    }
    std::printf("FAIL  %s\n      %s\n", Name.c_str(), S.toString().c_str());
  }

  void add(const std::string &Name, const verify::Diagnostics &Diags) {
    ++Runs;
    if (Diags.hasErrors())
      ++RunsWithErrors;
    Errors += Diags.count(verify::Severity::Error);
    Warnings += Diags.count(verify::Severity::Warning);
    Notes += Diags.count(verify::Severity::Note);
    if (Json) {
      std::printf("{\"config\":\"%s\",\"report\":%s}\n", Name.c_str(),
                  Diags.toJson().c_str());
      return;
    }
    if (Diags.all().empty()) {
      std::printf("ok    %s\n", Name.c_str());
      return;
    }
    std::printf("%s %s\n", Diags.hasErrors() ? "FAIL " : "warn ",
                Name.c_str());
    for (const verify::Diagnostic &D : Diags.all())
      std::printf("      %s\n", D.toString().c_str());
  }
};

/// Runs one configuration's verification, folding a lowering failure
/// (thrown StatusError) into the report as a structured compile failure
/// instead of letting it abort the whole sweep.
void addGuarded(LintReport &Report, const std::string &Name,
                const std::function<verify::Diagnostics()> &Fn) {
  try {
    Report.add(Name, Fn());
  } catch (const support::StatusError &E) {
    Report.fail(Name, E.status());
  }
}

/// Dynamic conformance pass: executes an already-verified plan with the
/// span tracer armed and folds obs::checkTrace's verdict into the
/// configuration's diagnostics. Persistent inputs are seeded with the
/// driver's deterministic pattern so kernels never consume uninitialized
/// storage.
///
/// The pass doubles as the scheduler bit-compare gate: a serial run in
/// plan task order (Threads = 1, the reference semantics) is the
/// reference, then the list scheduler runs at T in {2, 4} on a restored
/// copy of the seeded store. Every run's trace is checked against the
/// plan's dependence closure (T001-T006), and any bitwise output
/// divergence from the reference — which, the scheduler being
/// dependence-respecting, can only be a data race — is reported as a
/// T007-scheduler-divergence error.
void traceCheckRun(const ir::LoopChain &Chain, const exec::ExecutionPlan &Plan,
                   const codegen::KernelRegistry &Kernels,
                   storage::ConcreteStorage &Store,
                   verify::Diagnostics &Diags) {
  driver::seedInputs(Chain, Store);
  std::vector<std::vector<double>> Seeded;
  Seeded.reserve(Store.numSpaces());
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Seeded.push_back(Store.space(S));
  auto Restore = [&] {
    for (std::size_t S = 0; S < Seeded.size(); ++S)
      Store.space(S) = Seeded[S];
  };

  obs::Tracer &Tr = obs::Tracer::global();
  // One traced execution at the given thread count; folds the trace
  // conformance verdict into Diags.
  auto TracedRun = [&](int Threads,
                       exec::KernelMode Mode = exec::KernelMode::Interp) {
    Tr.enable();
    exec::RunOptions Opts;
    Opts.Threads = Threads;
    Opts.Kernels = Mode;
    try {
      exec::runPlan(Plan, Kernels, Store, Opts);
    } catch (...) {
      // Leave the tracer clean for the next configuration before the guard
      // folds the failure into the report as a compile/run failure.
      (void)Tr.drain();
      Tr.disable();
      throw;
    }
    obs::Trace T = Tr.drain();
    Tr.disable();
    verify::Diagnostics TDiags = obs::checkTrace(Plan, T);
    for (const verify::Diagnostic &D : TDiags.all())
      Diags.add(verify::Diagnostic(D));
  };

  TracedRun(1);
  std::vector<std::vector<double>> Reference;
  Reference.reserve(Store.numSpaces());
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Reference.push_back(Store.space(S));

  // Bit-compares the store against the reference; the first divergent
  // space becomes a \p CheckId error "<Who> diverged from the <Ref>
  // reference". Only persistent spaces are observable: a scratch
  // temporary's final contents are whatever its LAST writer left, and
  // parallel runs legally order independent writers differently
  // (tile-parallel runs even share participant 0's buffers with the
  // store).
  auto CompareToReference = [&](const char *CheckId, const std::string &Who,
                                const char *Ref) {
    for (std::size_t S = 0; S < Store.numSpaces(); ++S) {
      if (S < Plan.SpacePersistent.size() && !Plan.SpacePersistent[S])
        continue;
      if (std::memcmp(Store.space(S).data(), Reference[S].data(),
                      Reference[S].size() * sizeof(double)) != 0) {
        verify::Diagnostic D;
        D.Sev = verify::Severity::Error;
        D.CheckId = CheckId;
        D.Message = Who + " diverged from the " + Ref +
                    " reference in space " + std::to_string(S);
        Diags.add(std::move(D));
        return;
      }
    }
  };

  for (int Threads : {2, 4}) {
    Restore();
    TracedRun(Threads);
    CompareToReference(obs::CheckSchedulerDivergence,
                       "list scheduler at " + std::to_string(Threads) +
                           " thread(s)",
                       "serial");
  }

  // JIT bit-compare legs: a T in {1, 2, 4} sweep with --kernels=jit
  // forced, against the same interpreted reference. The JIT is best-effort
  // by contract (statements it cannot specialize keep interpreted bodies),
  // so these legs stay green on compiler-less machines — what they gate is
  // that any kernel the JIT *did* specialize is bit-identical.
  for (int Threads : {1, 2, 4}) {
    Restore();
    TracedRun(Threads, exec::KernelMode::Jit);
    CompareToReference(obs::CheckJitDivergence,
                       "jit kernels at " + std::to_string(Threads) +
                           " thread(s)",
                       "interpreted");
  }
}

/// Lowers a scheduled configuration through the shared driver stage and
/// runs every verifier family plus the graph-level schedule check. With
/// \p Trace a statically-clean plan is additionally executed under the
/// tracer and its trace validated against the plan's dependence closure.
verify::Diagnostics verifyGraph(driver::Scheduled S,
                                codegen::KernelRegistry Kernels,
                                std::int64_t SizeN, unsigned Widen,
                                bool JitStatic, bool Trace) {
  driver::LowerOptions LOpts;
  LOpts.Size = SizeN;
  LOpts.Widen = Widen;
  auto L = driver::Lowered::lower(std::move(S), std::move(Kernels), LOpts);
  if (!L)
    throw support::StatusError(L.takeError());
  verify::Diagnostics Diags = L->verify();
  if (JitStatic) {
    verify::Diagnostics KDiags = verify::verifyPlanKernels(L->Plan, L->Kernels);
    for (const verify::Diagnostic &D : KDiags.all())
      Diags.add(verify::Diagnostic(D));
  }
  if (Trace && !Diags.hasErrors()) {
    storage::ConcreteStorage Store(L->SPlan, L->Env);
    traceCheckRun(*L->Chain, L->Plan, L->Kernels, Store, Diags);
  }
  return Diags;
}

/// Lowers an overlapped tiling of the untransformed chain and verifies it,
/// including the seed-disjointness cross-check.
verify::Diagnostics verifyTiled(const ir::LoopChain &Chain,
                                const codegen::KernelRegistry &Kernels,
                                std::int64_t SizeN, std::int64_t TileSize,
                                bool TraceRun, bool JitStatic) {
  exec::ParamEnv Env{{"N", SizeN}};
  graph::Graph G = graph::buildGraph(Chain);
  const ir::LoopNest &Last = Chain.nest(Chain.numNests() - 1);
  std::vector<std::int64_t> Sizes(Last.Domain.rank(), TileSize);
  tiling::ChainTiling Tiling = tiling::overlappedTiling(Chain, Sizes, Env);
  storage::StoragePlan SPlan =
      storage::StoragePlan::build(G, /*UseAllocation=*/false);
  storage::ConcreteStorage Store(SPlan, Env);
  exec::ExecutionPlan Plan =
      exec::ExecutionPlan::fromTiling(Chain, Tiling, Store, Env, &G);
  verify::VerifyOptions Opts;
  Opts.Kernels = &Kernels;
  verify::PlanVerifier Verifier(Plan, Opts);
  verify::Diagnostics Diags = Verifier.verify();
  if (JitStatic) {
    verify::Diagnostics KDiags = verify::verifyPlanKernels(Plan, Kernels);
    for (const verify::Diagnostic &D : KDiags.all())
      Diags.add(verify::Diagnostic(D));
  }
  if (!Tiling.seedsDisjoint(Env)) {
    verify::Diagnostic D;
    D.Sev = verify::Severity::Error;
    D.CheckId = verify::CheckTaskRace;
    D.Message = "overlapped tiling has intersecting seed tiles: terminal "
                "writes of different tiles collide";
    Diags.add(std::move(D));
  }
  if (TraceRun && !Diags.hasErrors())
    traceCheckRun(Chain, Plan, Kernels, Store, Diags);
  return Diags;
}

bool readFile(const std::filesystem::path &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Sweeps one .lc chain file through its lowering configurations.
bool sweepChainFile(const std::filesystem::path &Path, std::int64_t SizeN,
                    bool Trace, bool JitStatic, LintReport &Report) {
  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return false;
  }
  parser::ParseResult Parsed = parser::parseLoopChain(Source);
  if (!Parsed) {
    std::fprintf(stderr, "%s:%u: error: %s\n", Path.c_str(), Parsed.Line,
                 Parsed.Error.c_str());
    return false;
  }
  ir::LoopChain Chain = std::move(*Parsed.Chain);
  codegen::KernelRegistry Kernels;
  driver::assignStandInKernels(Chain, Kernels, /*Pure=*/false);
  const std::string Stem = Path.stem().string();

  {
    driver::Scheduled S(Chain);
    addGuarded(Report, Stem + ":original", [&] {
      return verifyGraph(std::move(S), Kernels, SizeN, 1, JitStatic, Trace);
    });
  }

  std::filesystem::path ScriptPath = Path;
  ScriptPath.replace_extension(".script");
  std::string Script;
  if (readFile(ScriptPath, Script)) {
    for (unsigned Widen : {1u, 2u}) {
      driver::Scheduled S(Chain);
      parser::ScriptResult R = parser::runScript(*S.G, Script);
      if (!R) {
        std::fprintf(stderr, "%s:%u: error: %s\n", ScriptPath.c_str(), R.Line,
                     R.Error.c_str());
        return false;
      }
      storage::reduceStorage(*S.G);
      std::ostringstream Name;
      Name << Stem << ":script-reduced-widen" << Widen;
      addGuarded(Report, Name.str(), [&] {
        return verifyGraph(std::move(S), Kernels, SizeN, Widen, JitStatic,
                           Trace);
      });
    }
  }

  {
    driver::Scheduled S(Chain);
    (void)graph::autoSchedule(*S.G, {});
    storage::reduceStorage(*S.G);
    addGuarded(Report, Stem + ":autoschedule-reduced", [&] {
      return verifyGraph(std::move(S), Kernels, SizeN, 1, JitStatic, Trace);
    });
  }

  addGuarded(Report, Stem + ":tiled4", [&] {
    return verifyTiled(Chain, Kernels, SizeN, 4, Trace, JitStatic);
  });
  return true;
}

/// Sweeps the MiniFluxDiv recipes at a small concrete size.
void sweepMiniFluxDiv(bool ThreeD, std::int64_t SizeN, bool Trace,
                      bool JitStatic, LintReport &Report) {
  struct Recipe {
    const char *Name;
    void (*Apply)(graph::Graph &);
    bool Reduce;
    unsigned Widen;
  };
  const Recipe Recipes[] = {
      {"series", nullptr, false, 1},
      {"fuseAmong", mfd::applyFuseAmongDirections, true, 1},
      {"fuseWithin", mfd::applyFuseWithinDirections, true, 1},
      {"fuseWithin-widen2", mfd::applyFuseWithinDirections, true, 2},
      {"fuseAll", mfd::applyFuseAllLevels, true, 1},
      {"fuseAll-widen2", mfd::applyFuseAllLevels, true, 2},
  };
  const char *Prefix = ThreeD ? "mfd3d" : "mfd2d";
  for (const Recipe &R : Recipes) {
    ir::LoopChain Chain = ThreeD ? mfd::buildChain3D() : mfd::buildChain2D();
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(Chain, Kernels);
    driver::Scheduled S(std::move(Chain));
    if (R.Apply)
      R.Apply(*S.G);
    if (R.Reduce)
      storage::reduceStorage(*S.G);
    std::ostringstream Name;
    Name << Prefix << ":" << R.Name;
    addGuarded(Report, Name.str(), [&] {
      return verifyGraph(std::move(S), std::move(Kernels), SizeN, R.Widen,
                         JitStatic, Trace);
    });
  }
  if (!ThreeD) {
    ir::LoopChain Chain = mfd::buildChain2D();
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(Chain, Kernels);
    driver::Scheduled S(std::move(Chain));
    (void)graph::autoSchedule(*S.G, {});
    storage::reduceStorage(*S.G);
    addGuarded(Report, std::string(Prefix) + ":autoschedule-reduced", [&] {
      return verifyGraph(std::move(S), std::move(Kernels), SizeN, 1,
                         JitStatic, Trace);
    });
  }
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--strict] [--json] [--trace] [--jit-static] [--size=N] "
      "[<chains-dir>]\n",
      Argv0);
  return 2;
}

int runLint(int argc, char **argv) {
  bool Strict = false, Json = false, Trace = false, JitStatic = false;
  std::int64_t SizeN = 8;
  std::string ChainsDir = "examples/chains";

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--strict") {
      Strict = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--trace") {
      Trace = true;
    } else if (Arg == "--jit-static") {
      JitStatic = true;
    } else if (Arg.rfind("--size=", 0) == 0) {
      // The value must be all number: "16x" is a usage error, not 16.
      if (!parseInt(std::string_view(Arg).substr(7), SizeN))
        return usage(argv[0]);
      if (SizeN < 2) {
        std::fprintf(stderr, "error: --size must be at least 2\n");
        return 2;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      ChainsDir = Arg;
    }
  }

  LintReport Report;
  Report.Json = Json;

  std::error_code EC;
  std::vector<std::filesystem::path> ChainFiles;
  for (const auto &Entry :
       std::filesystem::directory_iterator(ChainsDir, EC)) {
    if (Entry.path().extension() == ".lc")
      ChainFiles.push_back(Entry.path());
  }
  if (EC) {
    std::fprintf(stderr, "error: cannot list %s: %s\n", ChainsDir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  std::sort(ChainFiles.begin(), ChainFiles.end());
  for (const std::filesystem::path &Path : ChainFiles)
    if (!sweepChainFile(Path, SizeN, Trace, JitStatic, Report))
      return 1;

  sweepMiniFluxDiv(/*ThreeD=*/false, /*SizeN=*/6, Trace, JitStatic, Report);
  sweepMiniFluxDiv(/*ThreeD=*/true, /*SizeN=*/4, Trace, JitStatic, Report);

  if (!Json)
    std::printf("lint: %d configuration(s), %d with errors (%zu error(s), "
                "%zu warning(s), %zu note(s), %d compile failure(s))\n",
                Report.Runs, Report.RunsWithErrors, Report.Errors,
                Report.Warnings, Report.Notes, Report.CompileFailures);
  // A configuration that would not even compile is a failure regardless of
  // --strict; legality ERRORs gate the exit code only under --strict.
  if (Report.CompileFailures)
    return 1;
  return Strict && Report.RunsWithErrors ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // Backstop: a StatusError escaping the per-configuration guards (corpus
  // discovery, recipe setup) still exits with a structured JSON diagnostic
  // on stderr instead of std::terminate.
  try {
    return runLint(argc, argv);
  } catch (const support::StatusError &E) {
    std::fprintf(stderr, "{\"error\":%s}\n", E.status().toJson().c_str());
    return 1;
  }
}
