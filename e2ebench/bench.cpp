//===- e2ebench/bench.cpp - End-to-end and per-layer benchmark -----------===//
//
// One process runs one workload of the end-to-end benchmark (README.md in
// this directory says why each workload exists):
//
//   lcdfg-e2ebench --workload W --seed N --seconds S --trace 0|1
//                  --jit-dir DIR [--sock PATH] [--corrupt-oracle]
//
// and prints one JSON object as its last stdout line: the process's
// setup time, op counts, failure reasons, per-op latencies and, with
// --trace 1, the per-layer metrics. run.py builds this program, runs it
// in several processes per run and pools what they print into the
// benchmark's result line.
//
// The program only calls the library's public entry points, timing them
// from outside; nothing inside src/ is instrumented for it. Every op's
// output is compared bit-for-bit against an oracle computed once, after
// setup and outside every timed interval.
//
//===----------------------------------------------------------------------===//

#include "codegen/Generator.h"
#include "codegen/Interpreter.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "exec/RowPlan.h"
#include "graph/GraphBuilder.h"
#include "jit/JitEngine.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/PragmaPrinter.h"
#include "parser/ScriptRunner.h"
#include "serve/Json.h"
#include "serve/PlanCache.h"
#include "serve/Server.h"
#include "shard/ShardRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "verify/KernelVerifier.h"
#include "verify/PlanVerifier.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;

namespace {

using Clock = std::chrono::steady_clock;

/// Set during static initialization, before main runs: setup_s counts
/// from here to the moment the first timed op is ready.
const Clock::time_point ProcessStart = Clock::now();

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

double secondsSince(Clock::time_point T0) { return msSince(T0) / 1000.0; }

std::uint64_t splitMix(std::uint64_t &State) {
  std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

constexpr std::uint64_t FnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv(std::uint64_t H, const void *Data, std::size_t Bytes) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Linear-interpolated percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

std::string fmt(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool CorruptOracle = false;
  std::string JitDir;
  std::string Sock;
};

/// Everything one process measured.
class Outcome {
public:
  double SetupS = 0.0;
  std::map<std::string, double> Layers;

  /// Latencies (ms) of the ops of one phase that ran to completion, failed
  /// or not (a run with any failed op is rejected whatever its latency);
  /// the traced half of a --trace 1 run keeps its own so tracing overhead
  /// is a ratio of two medians measured in the same process.
  struct Phase {
    std::vector<double> LatMs;
    std::int64_t Ops = 0;
    double Seconds = 0.0;
  };
  Phase Untraced, Traced;

  void record(Phase &P, double Ms, const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Attempted;
    ++P.Ops;
    if (Ms > 0.0)
      P.LatMs.push_back(Ms);
    if (!Why.empty()) {
      ++Failed;
      ++Reasons[Why];
    }
  }

  /// Marks \p N already-attempted ops as failed (a check that can only be
  /// made once a phase is over, such as a traced JIT-fallback count).
  void failAfter(std::int64_t N, const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mu);
    N = std::min(N, Attempted - Failed);
    Failed += N;
    Reasons[Why] += N;
  }

  /// Adds one per-op sample of a per-layer metric; the reported value is
  /// the median of the samples.
  void sample(const std::string &Name, double V) {
    std::lock_guard<std::mutex> Lock(Mu);
    Samples[Name].push_back(V);
  }

  std::string toJson(const Options &O) const {
    std::map<std::string, double> L = Layers;
    for (const auto &[Name, V] : Samples)
      L[Name] = median(V);
    if (O.Trace && !Untraced.LatMs.empty() && !Traced.LatMs.empty())
      L["obs.trace_overhead"] = median(Traced.LatMs) / median(Untraced.LatMs);

    const Phase &P = Untraced;
    rusage RU{};
    ::getrusage(RUSAGE_SELF, &RU);
    std::string J = "{\"workload\":\"" + O.Workload + "\"";
    J += ",\"seed\":" + std::to_string(O.Seed);
    J += ",\"compiler\":\"" + serve::jsonEscape(__VERSION__) + "\"";
    J += ",\"setup_s\":" + fmt(SetupS);
    J += ",\"attempted\":" + std::to_string(Attempted);
    J += ",\"failed\":" + std::to_string(Failed);
    J += ",\"fail_reasons\":{";
    bool First = true;
    for (const auto &[Why, N] : Reasons) {
      J += (First ? "\"" : ",\"") + serve::jsonEscape(Why) +
           "\":" + std::to_string(N);
      First = false;
    }
    J += "}";
    J += ",\"ops\":" + std::to_string(P.Ops);
    J += ",\"timed_s\":" + fmt(P.Seconds);
    J += ",\"lat_ms\":[";
    for (std::size_t I = 0; I < P.LatMs.size(); ++I)
      J += (I ? "," : "") + fmt(P.LatMs[I]);
    J += "]";
    J += ",\"rss_mb\":" + fmt(static_cast<double>(RU.ru_maxrss) / 1024.0);
    J += ",\"layers\":{";
    First = true;
    for (const auto &[Name, V] : L) {
      J += (First ? "\"" : ",\"") + Name + "\":" + fmt(V);
      First = false;
    }
    J += "}}";
    return J;
  }

private:
  std::mutex Mu;
  std::int64_t Attempted = 0;
  std::int64_t Failed = 0;
  std::map<std::string, std::int64_t> Reasons;
  std::map<std::string, std::vector<double>> Samples;
};

/// Runs \p Op back to back for \p Seconds. \p Op returns the op's latency
/// in ms and sets its argument to a failure reason when the op failed.
template <class OpFn>
void timedLoop(double Seconds, Outcome &Out, Outcome::Phase &P, OpFn &&Op) {
  Clock::time_point Start = Clock::now();
  do {
    std::string Why;
    double Ms = 0.0;
    try {
      Ms = Op(Why);
    } catch (const std::exception &E) {
      Why = std::string("exception: ") + E.what();
    }
    Out.record(P, Ms, Why);
  } while (secondsSince(Start) < Seconds);
  P.Seconds += secondsSince(Start);
}

/// The two timed phases of a run. Untraced runs spend all their time in
/// the untraced phase; --trace 1 runs split it, measuring the traced half
/// with the tracer armed so the overhead is visible.
template <class OpFn, class TracedOpFn>
void timedPhases(const Options &O, Outcome &Out, OpFn &&Op,
                 TracedOpFn &&TracedOp) {
  if (!O.Trace) {
    timedLoop(O.Seconds, Out, Out.Untraced, Op);
    return;
  }
  timedLoop(O.Seconds / 2, Out, Out.Untraced, Op);
  obs::Tracer::global().enable();
  timedLoop(O.Seconds / 2, Out, Out.Traced, TracedOp);
  obs::Tracer::global().disable();
}

//===----------------------------------------------------------------------===//
// MiniFluxDiv through the generic stack
//===----------------------------------------------------------------------===//

constexpr unsigned FuseAllWiden = 8; // The paper's best Fig. 6 schedule.

/// Fills every persistent input of \p Store with values derived from
/// \p Seed (inputs differ per seed and per box, never per op).
void seedInputs(const ir::LoopChain &Chain, storage::ConcreteStorage &Store,
                std::uint64_t Seed) {
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == ir::StorageKind::PersistentInput) {
      std::uint64_t State = Seed ^ (fnv(FnvBasis, Name.data(), Name.size()));
      for (double &V : Store.spaceOf(Name))
        V = 0.5 + static_cast<double>(splitMix(State) >> 11) *
                      (1.0 / 9007199254740992.0);
    }
}

std::uint64_t outputsFnv(const ir::LoopChain &Chain,
                         storage::ConcreteStorage &Store) {
  std::uint64_t H = FnvBasis;
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == ir::StorageKind::PersistentOutput) {
      const std::vector<double> &Buf = Store.spaceOf(Name);
      H = fnv(H, Buf.data(), Buf.size() * sizeof(double));
    }
  return H;
}

/// A compiled MiniFluxDiv plan plus one store per box. Built in place:
/// the graph keeps a reference to the chain.
struct MfdWorkload {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  std::optional<graph::Graph> G;
  storage::StoragePlan SPlan;
  codegen::AstPtr Ast;
  exec::ExecutionPlan Plan;
  exec::ParamEnv Env;
  std::vector<std::unique_ptr<storage::ConcreteStorage>> Stores;
  std::vector<std::uint64_t> BoxSeeds;

  /// The compile front half, each layer timed into \p Out.Layers.
  void build(bool FuseAll, std::int64_t N, int Boxes, std::uint64_t Seed,
             Outcome &Out) {
    Env = {{"N", N}};
    Chain = mfd::buildChain3D(); // Built in memory: the parser never runs.
    mfd::registerKernels(Chain, Kernels);
    Clock::time_point T = Clock::now();
    G.emplace(graph::buildGraph(Chain));
    Out.Layers["graph.build_ms"] = msSince(T);
    T = Clock::now();
    if (FuseAll) {
      mfd::applyFuseAllLevels(*G);
      storage::reduceStorage(*G);
    }
    Out.Layers["graph.transform_ms"] = msSince(T);
    T = Clock::now();
    SPlan = storage::StoragePlan::build(*G, /*UseAllocation=*/false,
                                        FuseAll ? FuseAllWiden : 1);
    Out.Layers["storage.plan_ms"] = msSince(T);
    T = Clock::now();
    std::uint64_t State = Seed;
    for (int B = 0; B < Boxes; ++B) {
      Stores.push_back(std::make_unique<storage::ConcreteStorage>(SPlan, Env));
      BoxSeeds.push_back(splitMix(State));
      seedInputs(Chain, *Stores.back(), BoxSeeds.back());
    }
    Out.Layers["storage.alloc_ms"] = msSince(T);
    if (FuseAll) {
      T = Clock::now();
      Ast = codegen::generate(*G);
      Out.Layers["codegen.generate_ms"] = msSince(T);
    }
    T = Clock::now();
    Plan = FuseAll
               ? exec::ExecutionPlan::fromAst(*G, *Ast, *Stores[0], Env)
               : exec::ExecutionPlan::fromChain(Chain, *Stores[0], Env, &*G);
    Out.Layers["exec.lower_ms"] = msSince(T);
  }

  void reset(int B) {
    Stores[B]->clear();
    seedInputs(Chain, *Stores[B], BoxSeeds[B]);
  }

  /// Scalar-serial interpreted runs: the oracle every op is compared to.
  std::vector<std::uint64_t> oracle(bool Corrupt) {
    exec::RunOptions Ref;
    Ref.Batched = false;
    Ref.Threads = 1;
    Ref.Kernels = exec::KernelMode::Interp;
    std::vector<std::uint64_t> Want;
    for (std::size_t B = 0; B < Stores.size(); ++B) {
      reset(static_cast<int>(B));
      exec::runPlan(Plan, Kernels, *Stores[B], Ref);
      Want.push_back(outputsFnv(Chain, *Stores[B]) ^ (Corrupt ? 1u : 0u));
    }
    return Want;
  }
};

/// Empty when every row-batchable instruction of \p Plan gets a compiled
/// body for every statement from \p Eng; otherwise why not.
std::string jitCoverage(const exec::ExecutionPlan &Plan,
                        const codegen::KernelRegistry &Kernels,
                        jit::Engine &Eng) {
  for (const exec::NestInstr &I : Plan.Instrs) {
    if (I.External)
      continue;
    exec::RowAnalysis RA = exec::RowPlan::analyze(I, Kernels, &Eng);
    if (!RA.Plan)
      return "jit-partial: " + I.Label + " stays scalar (" +
             std::string(exec::rowRefusalName(RA.Refusal)) + ")";
    if (RA.JitStmts != static_cast<int>(I.Stmts.size()))
      return "jit-partial: " + I.Label + " (" +
             std::string(exec::jitRefusalName(RA.Jit)) + ")";
  }
  return "";
}

/// Per-op counters of the traced phase, as per-layer samples.
void sampleExecCounters(const obs::Trace &T, double ExecuteMs, Outcome &Out) {
  using obs::Counter;
  double Batched = static_cast<double>(T.counter(Counter::BatchedInstrs));
  double Scalar = static_cast<double>(T.counter(Counter::ScalarInstrs));
  Out.sample("exec.gbytes_per_s",
             ExecuteMs > 0.0 ? static_cast<double>(T.counter(
                                   Counter::BytesMoved)) /
                                   (ExecuteMs * 1e6)
                             : 0.0);
  Out.sample("exec.points_per_op",
             static_cast<double>(T.counter(Counter::PointsExecuted)));
  Out.sample("exec.batched_instr_share",
             Batched + Scalar > 0.0 ? Batched / (Batched + Scalar) : 0.0);
  Out.sample("exec.segments_per_op",
             static_cast<double>(T.counter(Counter::BatchedSegments)));
  Out.sample("exec.sched_steals_per_op",
             static_cast<double>(T.counter(Counter::SchedSteals)));
  Out.sample("exec.sched_stalls_per_op",
             static_cast<double>(T.counter(Counter::SchedStalls)));
  Out.sample("jit.cache_hits_per_op",
             static_cast<double>(T.counter(Counter::JitCacheHits)));
}

/// Host-compiler time recorded as Jit spans in \p T.
double jitCompileMs(const obs::Trace &T) {
  double Ms = 0.0;
  for (const obs::TraceSpan &S : T.Spans)
    if (S.Kind == obs::SpanKind::Jit)
      Ms += static_cast<double>(S.T1 - S.T0) / 1e6;
  return Ms;
}

/// mfd16-fused-jit and mfd64-series-interp: one op runs the compiled plan
/// once over every box.
int runMfd(const Options &O, bool FuseAll, std::int64_t N, int Boxes,
           bool UseJit, int Threads, Outcome &Out) {
  obs::Tracer &Tr = obs::Tracer::global();
  if (O.Trace)
    Tr.enable(); // Catch the JIT compile spans of setup.

  MfdWorkload W;
  W.build(FuseAll, N, Boxes, O.Seed, Out);

  // A private engine over a fresh cache directory: setup pays the cold
  // compile on every run, never a neighbour run's leftovers.
  std::optional<jit::Engine> Eng;
  if (UseJit) {
    jit::EngineOptions EO = jit::EngineOptions::fromEnvironment();
    EO.CacheDir = O.JitDir + "/mfd";
    Eng.emplace(EO);
  }
  exec::RunOptions Run;
  Run.Threads = Threads;
  Run.Batched = true;
  Run.Scheduler = exec::SchedulerKind::List;
  Run.Kernels = UseJit ? exec::KernelMode::Jit : exec::KernelMode::Interp;
  Run.Jit = UseJit ? &*Eng : nullptr;

  // Warm-up op: compiles every JIT kernel and faults in every buffer.
  jit::Engine::Stats Before = UseJit ? Eng->stats() : jit::Engine::Stats{};
  for (int B = 0; B < Boxes; ++B)
    exec::runPlan(W.Plan, W.Kernels, *W.Stores[B], Run);
  Out.SetupS = secondsSince(ProcessStart);
  std::string JitProblem;
  if (UseJit) {
    jit::Engine::Stats After = Eng->stats();
    Out.Layers["jit.compiled"] = static_cast<double>(After.Compiled);
    if (After.Compiled + After.CacheHits == Before.Compiled + Before.CacheHits)
      JitProblem = "jit-unused: the warm-up run never consulted the engine";
    else
      JitProblem = jitCoverage(W.Plan, W.Kernels, *Eng);
  }
  if (O.Trace) {
    Out.Layers["jit.compile_ms"] = jitCompileMs(Tr.drain());
    Tr.disable();
  }

  const std::vector<std::uint64_t> Want = W.oracle(O.CorruptOracle);

  // One op: every box once. Resets and checks sit outside the timed
  // intervals; the op's latency is the sum of its runPlan wall times.
  auto Op = [&](std::string &Why, bool Traced) {
    double WallMs = 0.0, ExecMs = 0.0, MaxIdle = 0.0;
    std::int64_t Failures = UseJit ? Eng->stats().Failures : 0;
    if (Traced)
      (void)Tr.drain();
    for (int B = 0; B < Boxes; ++B) {
      W.reset(B);
      Clock::time_point T0 = Clock::now();
      exec::PlanStats S = exec::runPlan(W.Plan, W.Kernels, *W.Stores[B], Run);
      double Ms = msSince(T0);
      WallMs += Ms;
      ExecMs += S.Seconds * 1000.0;
      MaxIdle = std::max(MaxIdle, S.maxIdleShare());
      if (!(S.Seconds > 0.0) || S.Seconds * 1000.0 > Ms)
        Why = "stats-inconsistent: PlanStats::Seconds outside the run wall";
      if (outputsFnv(W.Chain, *W.Stores[B]) != Want[B])
        Why = "checksum-mismatch";
    }
    if (!JitProblem.empty())
      Why = JitProblem;
    if (UseJit && Eng->stats().Failures != Failures)
      Why = "jit-failure: the engine refused a kernel";
    if (!Traced)
      return WallMs;

    obs::Trace T = Tr.drain();
    if (UseJit && T.counter(obs::Counter::JitFallbacks) != 0)
      Why = "jit-fallback";
    Out.sample("exec.prepare_ms", WallMs - ExecMs);
    Out.sample("exec.execute_ms", ExecMs);
    Out.sample("exec.max_idle_share", MaxIdle);
    sampleExecCounters(T, ExecMs, Out);

    // The per-run preparation, re-timed from outside: the row analysis
    // runPlan performs for every instruction (which, under JIT, validates
    // each kernel emission and consults the engine), and the kernel
    // validator on its own.
    Clock::time_point T0 = Clock::now();
    for (const exec::NestInstr &I : W.Plan.Instrs)
      if (!I.External)
        (void)exec::RowPlan::analyze(I, W.Kernels, Run.Jit);
    Out.sample("exec.row_analyze_ms", msSince(T0) * Boxes);
    if (UseJit) {
      T0 = Clock::now();
      (void)verify::verifyPlanKernels(W.Plan, W.Kernels);
      Out.sample("verify.kernel_ms", msSince(T0) * Boxes);
    }
    return WallMs;
  };
  timedPhases(
      O, Out, [&](std::string &Why) { return Op(Why, false); },
      [&](std::string &Why) { return Op(Why, true); });
  return 0;
}

//===----------------------------------------------------------------------===//
// The plan-serving daemon
//===----------------------------------------------------------------------===//

/// One catalogue entry: a cache key of the MFD-3D chain text plus its
/// draw weight. The untransformed series plan (~25 ms a request) and the
/// autoscheduled, storage-reduced one (~45 ms) are two latency classes
/// drawn 3:1, so the class boundary sits at the 75th percentile: 25 points
/// from p50 and 15 from p90 (README.md).
struct ServeKey {
  const char *Script;
  std::int64_t Size;
  unsigned Widen;
  int Weight;
};

const ServeKey ServeCatalogue[] = {
    {"", 16, 1, 3},
    {"autoschedule\nreduce\n", 16, 8, 1},
};

struct ServeReply {
  std::string Why; ///< Empty when the reply is a correct warm JIT run.
  double Seconds = 0.0, WaitSeconds = 0.0, CompileSeconds = 0.0;
  std::string Fnv;
};

/// Checks one response against what a healthy warm JIT request returns.
ServeReply checkReply(const support::Expected<serve::JsonValue> &R,
                      bool WantHit, bool WantJit, const std::string &WantFnv) {
  ServeReply Out;
  if (!R) {
    Out.Why = "transport: " + R.error().toString();
    return Out;
  }
  const serve::JsonValue *Ok = R->find("ok");
  if (!Ok || !Ok->asBool()) {
    const serve::JsonValue *St = R->find("status");
    Out.Why = "not-ok: " + (St && St->find("code")
                                ? St->find("code")->asString()
                                : std::string("?"));
    return Out;
  }
  if (const serve::JsonValue *M = R->find("metrics")) {
    if (const serve::JsonValue *V = M->find("seconds"))
      Out.Seconds = V->asDouble();
    if (const serve::JsonValue *V = M->find("wait_seconds"))
      Out.WaitSeconds = V->asDouble();
    if (const serve::JsonValue *V = M->find("compile_seconds"))
      Out.CompileSeconds = V->asDouble();
  }
  if (const serve::JsonValue *V = R->find("result_fnv"))
    Out.Fnv = V->asString();
  const serve::JsonValue *Cache = R->find("cache");
  if (WantHit && (!Cache || Cache->asString() != "hit"))
    Out.Why = "cache-miss";
  if (WantJit) {
    const serve::JsonValue *Rep = R->find("report");
    const serve::JsonValue *Rung = Rep ? Rep->find("final_rung") : nullptr;
    const serve::JsonValue *Desc = Rep ? Rep->find("descents") : nullptr;
    if (!Rung || Rung->asString().rfind("jit-", 0) != 0)
      Out.Why = "jit-fallback: final rung " +
                (Rung ? Rung->asString() : std::string("?"));
    else if (Desc && !Desc->Items.empty())
      Out.Why = "descended";
  }
  if (!WantFnv.empty() && Out.Fnv != WantFnv)
    Out.Why = "checksum-mismatch";
  return Out;
}

std::string serveRequest(const std::string &Chain, const ServeKey &K,
                         bool Jit, bool Batched) {
  return "{" + serve::jsonField("chain", std::string_view(Chain)) + "," +
         serve::jsonField("script", std::string_view(K.Script)) + "," +
         serve::jsonField("size", K.Size) + "," +
         serve::jsonField("widen", static_cast<std::int64_t>(K.Widen)) + "," +
         serve::jsonField("kernels", std::string_view(Jit ? "jit" : "interp")) +
         "," + serve::jsonField("batched", Batched) + "," +
         serve::jsonField("checksum", true) + "}";
}

serve::RequestSpec serveSpec(const std::string &Chain, const ServeKey &K) {
  serve::RequestSpec S;
  S.Chain = Chain;
  S.Script = K.Script;
  S.Size = K.Size;
  S.Widen = K.Widen;
  S.Kernels = exec::KernelMode::Jit;
  return S;
}

/// Draws catalogue indices by weight from a per-client stream.
class KeyDraw {
public:
  explicit KeyDraw(std::uint64_t Seed) : State(Seed) {
    for (const ServeKey &K : ServeCatalogue)
      Total += K.Weight;
  }
  std::size_t next() {
    int R = static_cast<int>(splitMix(State) % static_cast<std::uint64_t>(Total));
    for (std::size_t I = 0; I < std::size(ServeCatalogue); ++I) {
      R -= ServeCatalogue[I].Weight;
      if (R < 0)
        return I;
    }
    return 0;
  }

private:
  std::uint64_t State;
  int Total = 0;
};

constexpr int ServeClients = 2;

/// The compile front half of every catalogue key, stage by stage through
/// the public entry points (PlanCache::compile runs them as one call).
void timeServeCompileLayers(const std::string &Chain,
                            const std::vector<serve::CompiledPlanPtr> &Plans,
                            Outcome &Out) {
  double Parse = 0, Build = 0, Transform = 0, Plan = 0, Alloc = 0, Gen = 0,
         Lower = 0, Verify = 0;
  for (std::size_t I = 0; I < std::size(ServeCatalogue); ++I) {
    const ServeKey &K = ServeCatalogue[I];
    Clock::time_point T = Clock::now();
    parser::ParseResult P = parser::parseLoopChain(Chain);
    Parse += msSince(T);
    if (!P)
      throw std::runtime_error("catalogue chain does not parse: " + P.Error);
    T = Clock::now();
    graph::Graph G = graph::buildGraph(*P.Chain);
    Build += msSince(T);
    T = Clock::now();
    if (*K.Script && !parser::runScript(G, K.Script))
      throw std::runtime_error("catalogue script failed");
    Transform += msSince(T);
    exec::ParamEnv Env;
    for (const char *Sym : {"N", "M", "X", "Y", "Z", "W"})
      Env.emplace(Sym, K.Size);
    T = Clock::now();
    storage::StoragePlan SPlan = storage::StoragePlan::build(G, true, K.Widen);
    Plan += msSince(T);
    T = Clock::now();
    storage::ConcreteStorage Store(SPlan, Env);
    Alloc += msSince(T);
    T = Clock::now();
    codegen::AstPtr Ast = codegen::generate(G);
    Gen += msSince(T);
    T = Clock::now();
    exec::ExecutionPlan EP = exec::ExecutionPlan::fromAst(G, *Ast, Store, Env);
    Lower += msSince(T);

    // The strict verifier needs the cached entry's synthetic kernels.
    const serve::CompiledPlan &CP = *Plans[I];
    T = Clock::now();
    verify::VerifyOptions VO;
    VO.Kernels = &CP.Kernels;
    verify::PlanVerifier V(CP.Plan, VO);
    verify::Diagnostics D = V.verify();
    verify::checkGraphSchedule(*CP.G, D);
    Verify += msSince(T);
  }
  Out.Layers["parser.parse_ms"] = Parse;
  Out.Layers["graph.build_ms"] = Build;
  Out.Layers["graph.transform_ms"] = Transform;
  Out.Layers["storage.plan_ms"] = Plan;
  Out.Layers["storage.alloc_ms"] = Alloc;
  Out.Layers["codegen.generate_ms"] = Gen;
  Out.Layers["exec.lower_ms"] = Lower;
  Out.Layers["verify.plan_ms"] = Verify;
}

/// The exec layer as serve uses it, re-run from outside on the cached
/// plans: requests drawn from the catalogue, each a runPlan on fresh
/// storage, traced.
void timeServeExecLayers(const std::vector<serve::CompiledPlanPtr> &Plans,
                         std::uint64_t Seed, Outcome &Out) {
  obs::Tracer &Tr = obs::Tracer::global();
  Tr.enable();
  KeyDraw Draw(Seed ^ 0x5eedull);
  exec::RunOptions Run;
  Run.Kernels = exec::KernelMode::Jit;
  for (int R = 0; R < 24; ++R) {
    const serve::CompiledPlan &CP = *Plans[Draw.next()];
    storage::ConcreteStorage Store(CP.SPlan, CP.Env);
    CP.seedStore(Store);
    (void)Tr.drain();
    Clock::time_point T0 = Clock::now();
    exec::PlanStats S = exec::runPlan(CP.Plan, CP.Kernels, Store, Run);
    double WallMs = msSince(T0);
    obs::Trace T = Tr.drain();
    Out.sample("exec.prepare_ms", WallMs - S.Seconds * 1000.0);
    Out.sample("exec.execute_ms", S.Seconds * 1000.0);
    Out.sample("exec.max_idle_share", S.maxIdleShare());
    sampleExecCounters(T, S.Seconds * 1000.0, Out);
    T0 = Clock::now();
    for (const exec::NestInstr &I : CP.Plan.Instrs)
      if (!I.External)
        (void)exec::RowPlan::analyze(I, CP.Kernels, &jit::Engine::global());
    Out.sample("exec.row_analyze_ms", msSince(T0));
    T0 = Clock::now();
    (void)verify::verifyPlanKernels(CP.Plan, CP.Kernels);
    Out.sample("verify.kernel_ms", msSince(T0));
  }
  Tr.disable();
}

int runServe(const Options &O, Outcome &Out) {
  obs::Tracer &Tr = obs::Tracer::global();
  if (O.Trace)
    Tr.enable();

  const std::string Chain = parser::printPragmas(mfd::buildChain3D());
  serve::ServerOptions SO;
  SO.UnixPath = O.Sock;
  serve::Server Srv(SO);
  if (support::Status S = Srv.start(); !S) {
    std::fprintf(stderr, "serve: %s\n", S.toString().c_str());
    return 1;
  }
  auto Connect = [&] {
    auto C = serve::Client::connectUnix(O.Sock);
    if (!C)
      throw std::runtime_error("connect: " + C.error().toString());
    return std::move(*C);
  };

  // Prime the catalogue: each key's first request compiles the plan and,
  // in the global engine's fresh cache directory, its JIT kernels.
  double CompileMs = 0.0;
  {
    serve::Client C = Connect();
    for (const ServeKey &K : ServeCatalogue) {
      // Only success is required here: a JIT that cannot deliver shows as
      // failed timed requests, not as a benchmark that cannot start.
      ServeReply R = checkReply(C.request(serveRequest(Chain, K, true, true),
                                          120000),
                                false, false, "");
      if (!R.Why.empty()) {
        std::fprintf(stderr, "serve: priming failed: %s\n", R.Why.c_str());
        return 1;
      }
      CompileMs += R.CompileSeconds * 1000.0;
    }
  }
  Out.SetupS = secondsSince(ProcessStart);
  Out.Layers["serve.compile_ms"] = CompileMs;
  if (O.Trace) {
    Out.Layers["jit.compile_ms"] = jitCompileMs(Tr.drain());
    Tr.disable();
  }
  Out.Layers["jit.compiled"] =
      static_cast<double>(jit::Engine::global().stats().Compiled);

  // Oracle: the same keys served scalar and interpreted.
  std::vector<std::string> Want;
  {
    serve::Client C = Connect();
    for (const ServeKey &K : ServeCatalogue) {
      ServeReply R = checkReply(C.request(serveRequest(Chain, K, false, false),
                                          120000),
                                true, false, "");
      if (!R.Why.empty() || R.Fnv.empty()) {
        std::fprintf(stderr, "serve: oracle request failed: %s\n",
                     R.Why.c_str());
        return 1;
      }
      if (O.CorruptOracle)
        R.Fnv[R.Fnv.size() - 1] = R.Fnv.back() == '0' ? '1' : '0';
      Want.push_back(R.Fnv);
    }
  }

  // The catalogue's plans compiled again outside the daemon, which
  // exposes none: the JIT coverage check and the traced layer probes
  // read them.
  std::vector<serve::CompiledPlanPtr> Plans;
  for (const ServeKey &K : ServeCatalogue) {
    auto CP = serve::PlanCache::compile(serveSpec(Chain, K));
    if (!CP) {
      std::fprintf(stderr, "serve: %s\n", CP.error().toString().c_str());
      return 1;
    }
    Plans.push_back(*CP);
  }
  std::string JitProblem;
  for (const serve::CompiledPlanPtr &CP : Plans)
    if (JitProblem.empty())
      JitProblem = jitCoverage(CP->Plan, CP->Kernels, jit::Engine::global());

  // Closed loop: each client sends its next request when the previous
  // reply has arrived.
  auto Clients = [&](Outcome::Phase &P, double Seconds, bool Traced) {
    serve::ServerStats Before = Srv.stats();
    std::vector<std::thread> Ts;
    Clock::time_point Start = Clock::now();
    for (int T = 0; T < ServeClients; ++T)
      Ts.emplace_back([&, T] {
        std::optional<serve::Client> C;
        try {
          C.emplace(Connect());
        } catch (const std::exception &E) {
          Out.record(P, 0.0, E.what());
          return;
        }
        KeyDraw Draw(O.Seed * 1000003ull + static_cast<std::uint64_t>(T) +
                     (Traced ? 77 : 0));
        do {
          std::size_t I = Draw.next();
          const std::string Line =
              serveRequest(Chain, ServeCatalogue[I], true, true);
          Clock::time_point T0 = Clock::now();
          auto R = C->request(Line, 120000);
          double Ms = msSince(T0);
          ServeReply Rep = checkReply(R, true, true, Want[I]);
          if (Rep.Why.empty() && !JitProblem.empty())
            Rep.Why = JitProblem;
          Out.record(P, Ms, Rep.Why);
          if (Traced && Rep.Why.empty()) {
            Out.sample("serve.run_ms", Rep.Seconds * 1000.0);
            Out.sample("serve.wait_ms", Rep.WaitSeconds * 1000.0);
            Out.sample("serve.non_run_ms",
                       Ms - (Rep.Seconds + Rep.WaitSeconds) * 1000.0);
          }
        } while (secondsSince(Start) < Seconds);
      });
    for (std::thread &T : Ts)
      T.join();
    P.Seconds += secondsSince(Start);
    serve::ServerStats After = Srv.stats();
    if (Traced && After.Admitted > Before.Admitted)
      Out.Layers["serve.hit_ratio"] =
          static_cast<double>(After.Hits - Before.Hits) /
          static_cast<double>(After.Admitted - Before.Admitted);
  };

  if (!O.Trace) {
    Clients(Out.Untraced, O.Seconds, false);
  } else {
    Clients(Out.Untraced, O.Seconds / 2, false);
    Tr.enable();
    Clients(Out.Traced, O.Seconds / 2, true);
    obs::Trace T = Tr.drain();
    Tr.disable();
    if (T.counter(obs::Counter::JitFallbacks) != 0)
      Out.failAfter(Out.Traced.Ops, "jit-fallback");
    timeServeCompileLayers(Chain, Plans, Out);
    timeServeExecLayers(Plans, O.Seed, Out);
  }
  Srv.stop();
  return 0;
}

//===----------------------------------------------------------------------===//
// Sharded multi-process stencil
//===----------------------------------------------------------------------===//

constexpr int ShardBoxN = 20;
constexpr int ShardComps = 2;
constexpr int ShardSteps = 4;
const rt::GridLayout ShardLayout{4, 2, 2}; // Two z-rows of 2x2 boxes/shard.

void averageStep(const rt::Box &In, rt::Box &Out) {
  for (int C = 0; C < In.numComponents(); ++C)
    for (int Z = 0; Z < In.size(); ++Z)
      for (int Y = 0; Y < In.size(); ++Y)
        for (int X = 0; X < In.size(); ++X)
          Out.at(C, Z, Y, X) =
              (In.at(C, Z, Y, X) + In.at(C, Z - 1, Y, X) +
               In.at(C, Z + 1, Y, X) + In.at(C, Z, Y - 1, X) +
               In.at(C, Z, Y + 1, X) + In.at(C, Z, Y, X - 1) +
               In.at(C, Z, Y, X + 1)) /
              7.0;
}

std::uint64_t boxesFnv(const std::vector<rt::Box> &Boxes) {
  std::uint64_t H = FnvBasis;
  for (const rt::Box &B : Boxes)
    for (int C = 0; C < B.numComponents(); ++C)
      for (int Z = 0; Z < B.size(); ++Z)
        for (int Y = 0; Y < B.size(); ++Y)
          H = fnv(H, &B.at(C, Z, Y, 0),
                  static_cast<std::size_t>(B.size()) * sizeof(double));
  return H;
}

/// shard2-stencil: one op is one runSharded call, fork included. This
/// process never touches the global ThreadPool (fork precondition).
int runShard(const Options &O, Outcome &Out) {
  std::vector<rt::Box> Initial;
  std::uint64_t State = O.Seed;
  for (int I = 0; I < ShardLayout.numBoxes(); ++I) {
    Initial.emplace_back(ShardBoxN, 1, ShardComps);
    Initial.back().fillPseudoRandom(splitMix(State));
  }
  shard::ShardOptions SO;
  SO.Shards = 2;
  SO.Threads = 1;

  auto Sharded = [&](int Steps, std::string &Why, shard::ShardReport *Rep) {
    std::vector<rt::Box> Boxes = Initial;
    Clock::time_point T0 = Clock::now();
    shard::ShardReport R =
        shard::runSharded(Boxes, ShardLayout, Steps, averageStep, SO);
    double Ms = msSince(T0);
    if (!R.Completed || R.Recovered || R.FinalRung != "sharded-2")
      Why = "shard-degraded: " + R.FinalRung;
    if (Rep)
      *Rep = R;
    return std::make_pair(Ms, boxesFnv(Boxes));
  };

  // Warm-up op: the first fork and first touch of every box.
  {
    std::string Why;
    (void)Sharded(ShardSteps, Why, nullptr);
  }
  Out.SetupS = secondsSince(ProcessStart);

  std::uint64_t Want = 0;
  {
    std::vector<rt::Box> Boxes = Initial;
    if (support::Status S = shard::runSerialReference(Boxes, ShardLayout,
                                                      ShardSteps, averageStep);
        !S) {
      std::fprintf(stderr, "shard: reference failed: %s\n",
                   S.toString().c_str());
      return 1;
    }
    Want = boxesFnv(Boxes) ^ (O.CorruptOracle ? 1u : 0u);
  }

  auto Op = [&](std::string &Why) {
    shard::ShardReport R;
    auto [Ms, H] = Sharded(ShardSteps, Why, &R);
    if (H != Want)
      Why = "checksum-mismatch";
    if (O.Trace) {
      Out.sample("shard.bytes_per_step",
                 static_cast<double>(R.Stats.Bytes) / ShardSteps);
      Out.sample("shard.retries", static_cast<double>(R.Stats.Retries));
    }
    return Ms;
  };
  // Sharded ops record nothing in the tracer (the work runs in forked
  // children), so both phases run the same op.
  timedPhases(O, Out, Op, Op);

  if (O.Trace) {
    // Two-point fit over step counts: fixed cost (fork, checkpoint,
    // teardown) and the marginal cost of one exchanged step.
    constexpr int Short = 2, Long = 6, Reps = 5;
    std::vector<double> TS, TL, Serial;
    for (int R = 0; R < Reps; ++R) {
      std::string Why;
      TS.push_back(Sharded(Short, Why, nullptr).first);
      TL.push_back(Sharded(Long, Why, nullptr).first);
      std::vector<rt::Box> Boxes = Initial;
      Clock::time_point T0 = Clock::now();
      (void)shard::runSerialReference(Boxes, ShardLayout, ShardSteps,
                                      averageStep);
      Serial.push_back(msSince(T0) / ShardSteps);
    }
    double PerStep = (median(TL) - median(TS)) / (Long - Short);
    Out.Layers["shard.per_step_ms"] = PerStep;
    Out.Layers["shard.fixed_ms"] = median(TS) - Short * PerStep;
    Out.Layers["shard.serial_step_ms"] = median(Serial);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lcdfg-e2ebench --workload W --seed N --seconds S "
               "--trace 0|1 --jit-dir DIR [--sock PATH] "
               "[--corrupt-oracle]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::runtime_error("missing value for " + A);
      return Argv[++I];
    };
    try {
      if (A == "--workload")
        O.Workload = Next();
      else if (A == "--seed")
        O.Seed = std::stoull(Next());
      else if (A == "--seconds")
        O.Seconds = std::stod(Next());
      else if (A == "--trace")
        O.Trace = Next() != "0";
      else if (A == "--jit-dir")
        O.JitDir = Next();
      else if (A == "--sock")
        O.Sock = Next();
      else if (A == "--corrupt-oracle")
        O.CorruptOracle = true;
      else
        return usage();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "lcdfg-e2ebench: %s\n", E.what());
      return usage();
    }
  }
  if (O.JitDir.empty() || O.Seconds <= 0.0)
    return usage();

  Outcome Out;
  int Rc = 0;
  try {
    if (O.Workload == "mfd16-fused-jit")
      Rc = runMfd(O, /*FuseAll=*/true, 16, /*Boxes=*/4, /*UseJit=*/true,
                  /*Threads=*/1, Out);
    else if (O.Workload == "mfd64-series-interp")
      Rc = runMfd(O, /*FuseAll=*/false, 64, /*Boxes=*/1, /*UseJit=*/false,
                  /*Threads=*/2, Out);
    else if (O.Workload == "serve-mfd-jit")
      Rc = O.Sock.empty() ? usage() : runServe(O, Out);
    else if (O.Workload == "shard2-stencil")
      Rc = runShard(O, Out);
    else
      return usage();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "lcdfg-e2ebench: %s: %s\n", O.Workload.c_str(),
                 E.what());
    return 1;
  }
  if (Rc != 0)
    return Rc;
  std::printf("%s\n", Out.toJson(O).c_str());
  return 0;
}
