//===- bench/bench_common.cpp ---------------------------------------------===//

#include "bench_common.h"

#include "codegen/Generator.h"
#include "driver/Lowering.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "minifluxdiv/Spec.h"
#include "storage/ReuseDistance.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace lcdfg;
using namespace lcdfg::bench;

namespace {

long envLong(const char *Name, long Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  return std::atol(V);
}

} // namespace

Config Config::fromEnvironment() {
  Config C;
  C.TotalCells = envLong("MFD_CELLS", 1L << 21);
  C.LargeBox = static_cast<int>(envLong("MFD_LARGE_BOX", 64));
  C.Reps = static_cast<int>(envLong("MFD_REPS", 3));
  C.MaxThreads = static_cast<int>(envLong("MFD_THREADS", 4));
  return C;
}

std::vector<int> Config::threadSweep() const {
  std::vector<int> Sweep;
  for (int T = 1; T <= MaxThreads; T *= 2)
    Sweep.push_back(T);
  return Sweep;
}

double bench::timeBestOf(int Reps, const std::function<void()> &Fn) {
  Fn(); // warm-up
  double Best = 1e300;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    double S = std::chrono::duration<double>(T1 - T0).count();
    if (S < Best)
      Best = S;
  }
  return Best;
}

double bench::timeVariant(mfd::Variant V, const std::vector<rt::Box> &In,
                          std::vector<rt::Box> &Out,
                          const mfd::RunConfig &Run, int Reps) {
  return timeBestOf(Reps, [&] { mfd::runVariant(V, In, Out, Run); });
}

void bench::printHeader(const std::string &Title,
                        const std::string &Columns) {
  std::printf("\n== %s ==\n%s\n", Title.c_str(), Columns.c_str());
}

void bench::printRow(const std::vector<std::string> &Cells) {
  for (std::size_t I = 0; I < Cells.size(); ++I)
    std::printf("%s%-26s", I ? " " : "", Cells[I].c_str());
  std::printf("\n");
}

std::string bench::fmtSeconds(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4gs", S);
  return Buf;
}

void JsonReport::record(const std::string &Variant, const std::string &Key,
                        double Seconds) {
  if (Rows.find(Variant) == Rows.end())
    Order.push_back(Variant);
  Rows[Variant][Key] = Seconds;
}

bool JsonReport::write() const {
  const char *Path = std::getenv("BENCH_JSON");
  if (!Path || !*Path)
    return true;
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const char *Commit = std::getenv("BENCH_COMMIT");
  const Config C = Config::fromEnvironment();
  Out << "{\n";
  // The run's provenance, so a committed baseline records what produced
  // it; bench_compare ignores this variant when diffing.
  Out << "  \"_meta\": {\"compiler\": \"" << __VERSION__ << "\", "
      << "\"commit\": \"" << (Commit && *Commit ? Commit : "unknown")
      << "\", \"cells\": " << C.TotalCells << ", \"large_box\": "
      << C.LargeBox << ", \"reps\": " << C.Reps << ", \"threads\": "
      << C.MaxThreads << ", \"widen\": " << FuseAllModuloWiden << "}"
      << (Order.empty() ? "" : ",") << "\n";
  for (std::size_t V = 0; V < Order.size(); ++V) {
    const auto &Keys = Rows.at(Order[V]);
    Out << "  \"" << Order[V] << "\": {";
    std::size_t K = 0;
    for (const auto &[Key, Seconds] : Keys) {
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), "%.9g", Seconds);
      Out << (K++ ? ", " : "") << "\"" << Key << "\": " << Buf;
    }
    Out << "}" << (V + 1 < Order.size() ? "," : "") << "\n";
  }
  Out << "}\n";
  std::printf("wrote %s\n", Path);
  return true;
}

double bench::timePlanRun(const exec::ExecutionPlan &Plan,
                          const codegen::KernelRegistry &Kernels,
                          storage::ConcreteStorage &Store,
                          const exec::RunOptions &Opts, int Reps) {
  return timeBestOf(Reps,
                    [&] { exec::runPlan(Plan, Kernels, Store, Opts); });
}

void bench::timeSchedulerStrategies(mfd::Variant V,
                                    const std::vector<rt::Box> &In,
                                    std::vector<rt::Box> &Out,
                                    const Config &Cfg, JsonReport &Json) {
  const std::string Name = mfd::variantName(V);
  const std::string RowName = "sched-" + Name;
  printHeader(Name + " — list scheduler",
              "threads seconds max-idle-share");

  std::vector<int> Threads{2};
  if (Cfg.MaxThreads > 2)
    Threads.push_back(Cfg.MaxThreads);
  for (int T : Threads) {
    mfd::RunConfig Run;
    Run.Threads = T;
    // Stats carry the per-worker busy times of the last repetition; the
    // best-of timing and the idle shares come from the same sweep.
    exec::PlanStats Stats;
    double S = timeBestOf(Cfg.Reps, [&] {
      mfd::runVariant(V, In, Out, Run, &Stats);
    });
    double Idle = Stats.maxIdleShare();
    const std::string Key = "list_T" + std::to_string(T);
    Json.record(RowName, Key, S);
    Json.record(RowName, "idle_" + Key, Idle);
    char IdleBuf[32];
    std::snprintf(IdleBuf, sizeof(IdleBuf), "%.1f%%", Idle * 100.0);
    printRow({"T=" + std::to_string(T), fmtSeconds(S), IdleBuf});
  }
}

void bench::timeCompiledSchedules(std::int64_t N, int Reps,
                                  JsonReport &Json) {
  exec::ParamEnv Env{{"N", N}};
  printHeader("compiled plans at N=" + std::to_string(N) +
                  " — row batching on vs off",
              "schedule / batched_off batched_on speedup");

  auto report = [&](const std::string &Name,
                    const exec::ExecutionPlan &Plan,
                    const codegen::KernelRegistry &Kernels,
                    storage::ConcreteStorage &Store) {
    exec::RunOptions Opts; // Threads = 1: isolate the dispatch cost.
    Opts.Batched = false;
    double Off = timePlanRun(Plan, Kernels, Store, Opts, Reps);
    Opts.Batched = true;
    double On = timePlanRun(Plan, Kernels, Store, Opts, Reps);
    Json.record(Name, "batched_off", Off);
    Json.record(Name, "batched_on", On);
    char Ratio[32];
    std::snprintf(Ratio, sizeof(Ratio), "%.2fx", Off / On);
    printRow({Name, fmtSeconds(Off), fmtSeconds(On), Ratio});
    // The JIT variant rides as its own row, present only when a host
    // compiler is reachable — bench_compare treats the jit- prefix as
    // optional, so compiler-less machines still gate the other rows.
    if (exec::effectiveKernelMode(exec::KernelMode::Jit) ==
            exec::KernelMode::Jit &&
        jit::Engine::global().available()) {
      Opts.Kernels = exec::KernelMode::Jit;
      double J = timePlanRun(Plan, Kernels, Store, Opts, Reps);
      Json.record("jit-" + Name, "batched_jit", J);
      std::snprintf(Ratio, sizeof(Ratio), "%.2fx vs interp", On / J);
      printRow({"jit-" + Name, fmtSeconds(J), Ratio});
    }
  };

  // Series of loops: one plan instruction per nest in chain order.
  {
    ir::LoopChain Chain = mfd::buildChain3D();
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(Chain, Kernels);
    graph::Graph G = graph::buildGraph(Chain);
    storage::StoragePlan SPlan =
        storage::StoragePlan::build(G, /*UseAllocation=*/false);
    storage::ConcreteStorage Store(SPlan, Env);
    driver::seedInputs(Chain, Store);
    exec::ExecutionPlan Plan =
        exec::ExecutionPlan::fromChain(Chain, Store, Env, &G);
    report("series", Plan, Kernels, Store);
  }

  // Fuse-all with reduced storage: the schedule whose per-point scalar
  // overhead is largest (many fused statements, modulo-mapped buffers).
  // The reuse-distance windows are widened 8x: exact windows cap batch
  // segments at the producer/consumer lag (2 points here), while widened
  // windows satisfy M >= 2*lag for every pair and batch whole rows. Both
  // the off and on runs use the same widened plan, so the ratio isolates
  // the batching itself.
  {
    ir::LoopChain Chain = mfd::buildChain3D();
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(Chain, Kernels);
    graph::Graph G = graph::buildGraph(Chain);
    mfd::applyFuseAllLevels(G);
    storage::reduceStorage(G);
    storage::StoragePlan SPlan = storage::StoragePlan::build(
        G, /*UseAllocation=*/false, FuseAllModuloWiden);
    storage::ConcreteStorage Store(SPlan, Env);
    driver::seedInputs(Chain, Store);
    codegen::AstPtr Ast = codegen::generate(G);
    exec::ExecutionPlan Plan =
        exec::ExecutionPlan::fromAst(G, *Ast, Store, Env);
    report("fuseAll-reduced", Plan, Kernels, Store);
  }
}
