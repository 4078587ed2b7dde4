//===- tools/lcdfg-opt.cpp - Loop chain optimization driver ---------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// The command-line face of the paper's workflow: read an annotated loop
// chain, optionally apply a transformation script (or the automatic
// scheduler), and emit any of the system's artifacts — the schedule as
// text, the cost model, the Graphviz rendering, the ISCC script, the
// storage plan, or generated C code.
//
//   lcdfg-opt [options] <chain.lc>
//     --script <file>      apply a transformation script (see ScriptRunner)
//     --autoschedule[=S]   run the greedy scheduler (stream budget S)
//     --reduce             apply reuse-distance storage reduction
//     --emit=text|cost|dot|iscc|storage|code|pragmas   (default: text)
//     --stats              compile + execute the schedule at --size and
//                          report per-node timings and measured-vs-model
//                          traffic (replaces --emit output). The counting
//                          run is serialized and scalar (the oracle); a
//                          second uninstrumented run reports wall time
//                          honoring --threads and --batched.
//     --batched=on|off     row-batched kernel execution for the timed
//                          run (default on)
//     --dump-plan          print the compiled ExecutionPlan
//     --verify[=strict]    run the static legality verifier over the
//                          compiled plan and the scheduled graph; strict
//                          mode exits nonzero when any ERROR is found.
//                          With --kernels=jit also runs the JIT
//                          translation validator (K codes) over every
//                          emission the engine would compile
//     --report[=json]      execute through the graceful-degradation ladder
//                          (exec::runWithRecovery) with the untransformed
//                          chain as the fallback plan, and print the
//                          RunReport: every rung descent with its stable
//                          L00x reason code, the rung that completed, and
//                          the E014 diagnostic when the ladder exhausts.
//                          Exits nonzero only when no rung completed.
//                          Honors an armed LCDFG_FAULT spec, so this is
//                          the fault-campaign entry point for tools/ci.sh.
//     --harden             run --report rungs against canary-padded shadow
//                          buffers with NaN-poisoned temporaries
//     --trace=<file>       execute the schedule once (honoring --threads
//                          and --batched) with the span tracer armed and
//                          write the Chrome trace_event JSON to <file>
///                          (load in chrome://tracing or Perfetto); the
//                          trace is validated with obs::checkTrace and any
//                          T00x conformance error exits nonzero
//     --metrics            print the trace's compact text summary (counter
//                          registry totals, per-worker busy time and load
//                          imbalance); implies a traced run like --trace
//     --size=N             concrete size for --stats/--dump-plan (default 8)
//     --threads=K          parallelism for --stats runs
//     --mem-budget=B       live-temporary byte cap for the list scheduler;
//                          tasks whose admission would push live bytes
//                          past B are deferred. An infeasible budget is an
//                          E016 error (under --report, an L007 descent).
//     -o <file>            write output to a file instead of stdout
//
//===----------------------------------------------------------------------===//

#include "codegen/CPrinter.h"
#include "codegen/Generator.h"
#include "codegen/IsccExport.h"
#include "driver/Lowering.h"
#include "exec/PlanRunner.h"
#include "exec/Recovery.h"
#include "exec/RowPlan.h"
#include "obs/Trace.h"
#include "obs/TraceCheck.h"
#include "graph/AutoScheduler.h"
#include "graph/CostModel.h"
#include "graph/DotExport.h"
#include "graph/Traffic.h"
#include "parser/PragmaParser.h"
#include "parser/PragmaPrinter.h"
#include "parser/ScriptRunner.h"
#include "shard/ShardRunner.h"
#include "storage/ReuseDistance.h"
#include "storage/StorageMap.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "verify/KernelVerifier.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace lcdfg;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <chain.lc>\n"
      "  --script <file>     apply a transformation script\n"
      "  --autoschedule[=S]  greedy scheduling with stream budget S\n"
      "  --reduce            reuse-distance storage reduction\n"
      "  --emit=KIND         text|cost|dot|iscc|storage|code|pragmas\n"
      "  --stats             execute the schedule, report node timings and\n"
      "                      measured-vs-model traffic\n"
      "  --batched=on|off    row-batched execution for the timed run\n"
      "  --kernels=interp|jit batched-body provenance: registered C++\n"
      "                      bodies (default) or run-time-compiled\n"
      "                      specialized kernels (LCDFG_JIT overrides)\n"
      "  --dump-plan         print the compiled execution plan\n"
      "  --verify[=strict]   static legality checks; strict exits nonzero\n"
      "                      on any ERROR (adds the K-code JIT translation\n"
      "                      validator under --kernels=jit)\n"
      "  --report[=json]     execute through the degradation ladder and\n"
      "                      print the recovery report; exits nonzero only\n"
      "                      when every rung fails (honors LCDFG_FAULT)\n"
      "  --harden            redzone + NaN-guard shadow buffers for\n"
      "                      --report runs\n"
      "  --trace=FILE        traced execution; write Chrome trace JSON\n"
      "  --metrics           print the trace summary (counters, per-worker\n"
      "                      load); implies a traced run\n"
      "  --shards=N          (with --report) multi-process sharded\n"
      "                      timestepper drill: N forked workers exchange\n"
      "                      ghost slabs with deadlines/retries, verified\n"
      "                      bit-identical against a serial oracle; honors\n"
      "                      LCDFG_FAULT peer:kill / msg:* specs (L009)\n"
      "  --size=N            concrete size for --stats/--dump-plan\n"
      "  --threads=K         parallelism for --stats runs\n"
      "  --mem-budget=B      live-temporary byte cap for parallel runs;\n"
      "                      infeasible budgets fail with E016\n"
      "  -o <file>           output file (default stdout)\n",
      Argv0);
  return 2;
}

/// --shards=N: the sharded multi-process timestepper drill. The chain
/// contributes its stencil (ghost depth = widest read offset, one grid
/// component per nest); the run itself is the Section 5.6 workload — a
/// periodic box grid stepped 3 times across N worker processes with
/// fault-tolerant overlapped ghost exchange — followed by an in-process
/// scalar-serial oracle run whose result must be bit-identical.
///
/// Deliberately bypasses the plan/pool machinery: fork needs a
/// single-threaded parent, so nothing here may start the ThreadPool (the
/// oracle runs at Threads = 1, which rt::parallelFor executes inline).
int runShardsMode(const ir::LoopChain &Chain, int Shards, int Threads,
                  std::int64_t SizeN, bool Json, bool Metrics,
                  const std::string &OutputPath) {
  const int N = static_cast<int>(
      std::min<std::int64_t>(std::max<std::int64_t>(SizeN, 2), 16));

  // The chain's read stencil, padded/truncated to 3D. Ghost depth is the
  // widest offset in any dimension, clamped to [1, N] (deeper ghosts than
  // a box interior are rejected by the runtime).
  std::set<std::array<int, 3>> Points;
  Points.insert({0, 0, 0});
  std::int64_t Widest = 1;
  for (unsigned I = 0; I < Chain.numNests(); ++I)
    for (const ir::Access &A : Chain.nest(I).Reads)
      for (const std::vector<std::int64_t> &Off : A.Offsets) {
        std::array<int, 3> P{0, 0, 0};
        for (std::size_t D = 0; D < Off.size() && D < 3; ++D) {
          P[D] = static_cast<int>(Off[D]);
          Widest = std::max<std::int64_t>(
              Widest, Off[D] < 0 ? -Off[D] : Off[D]);
        }
        Points.insert(P);
      }
  const int G = static_cast<int>(std::min<std::int64_t>(Widest, N));
  const int NumComp =
      std::max(1, std::min(4, static_cast<int>(Chain.numNests())));

  std::vector<std::array<int, 3>> Stencil;
  for (std::array<int, 3> P : Points) {
    for (int &C : P)
      C = std::max(-G, std::min(G, C));
    Stencil.push_back(P);
  }
  const double Scale = 1.0 / static_cast<double>(Stencil.size());
  shard::StepFn Fn = [Stencil, Scale](const rt::Box &In, rt::Box &Out) {
    for (int C = 0; C < In.numComponents(); ++C)
      for (int Z = 0; Z < In.size(); ++Z)
        for (int Y = 0; Y < In.size(); ++Y)
          for (int X = 0; X < In.size(); ++X) {
            double Acc = 0.0;
            for (const std::array<int, 3> &P : Stencil)
              Acc += In.at(C, Z + P[0], Y + P[1], X + P[2]);
            Out.at(C, Z, Y, X) = Acc * Scale;
          }
  };

  // 3 z-rows per rank: every worker has interior rows to overlap with the
  // in-flight exchange.
  const rt::GridLayout Layout{3 * Shards, 2, 2};
  std::vector<rt::Box> Boxes;
  Boxes.reserve(static_cast<std::size_t>(Layout.numBoxes()));
  for (int I = 0; I < Layout.numBoxes(); ++I) {
    Boxes.emplace_back(N, G, NumComp);
    Boxes.back().fillPseudoRandom(0x10a7ULL +
                                  static_cast<std::uint64_t>(I) * 733);
  }
  std::vector<rt::Box> Oracle = Boxes;

  const int Steps = 3;
  const support::Status OracleStatus =
      shard::runSerialReference(Oracle, Layout, Steps, Fn);
  shard::ShardOptions Opts;
  Opts.Shards = Shards;
  Opts.Threads = std::max(1, Threads);
  // With --metrics the coordinator-side tracer records the Shard/Exchange
  // spans and folds the workers' rt.shard.* totals in at drain time.
  obs::Tracer &Tracer = obs::Tracer::global();
  if (Metrics)
    Tracer.enable();
  shard::ShardReport Report =
      shard::runSharded(Boxes, Layout, Steps, Fn, Opts);
  std::string Summary;
  if (Metrics) {
    obs::Trace T = Tracer.drain();
    Tracer.disable();
    Summary = T.summary();
  }

  bool BitIdentical = Report.Completed && OracleStatus.isOk();
  for (std::size_t I = 0; BitIdentical && I < Boxes.size(); ++I)
    for (int C = 0; BitIdentical && C < NumComp; ++C)
      for (int Z = 0; BitIdentical && Z < N; ++Z)
        for (int Y = 0; BitIdentical && Y < N; ++Y)
          for (int X = 0; X < N; ++X)
            if (Boxes[I].at(C, Z, Y, X) != Oracle[I].at(C, Z, Y, X)) {
              BitIdentical = false;
              break;
            }

  std::string Output;
  if (Json) {
    std::string J = Report.toJson();
    J.insert(J.size() - 1, std::string(",\"oracle_bit_identical\":") +
                               (BitIdentical ? "true" : "false"));
    Output = J + "\n";
  } else {
    Output = Report.toString() + "  oracle bit-identical: " +
             (BitIdentical ? "yes" : "no") + "\n";
  }
  Output += Summary;
  if (OutputPath.empty()) {
    std::fputs(Output.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
      return 1;
    }
    Out << Output;
  }
  return (!Report.Completed || !BitIdentical) ? 1 : 0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

int runTool(int argc, char **argv) {
  std::string InputPath, ScriptPath, OutputPath;
  std::string Emit = "text";
  bool AutoSchedule = false, Reduce = false;
  bool Stats = false, DumpPlan = false, Batched = true;
  bool Verify = false, VerifyStrict = false;
  bool Report = false, ReportJson = false, Harden = false;
  std::string TracePath;
  bool Metrics = false;
  std::int64_t SizeN = 8;
  int Threads = 1;
  unsigned Streams = 4;
  exec::KernelMode KernelMode = exec::KernelMode::Interp;
  std::int64_t MemBudget = 0;
  int Shards = 0;

  // A numeric flag's value must be all number: "16x" is a usage error,
  // not 16. On success the value is in V.
  std::int64_t V = 0;
  auto intValue = [&](const std::string &Arg, std::size_t Skip) {
    return parseInt(std::string_view(Arg).substr(Skip), V);
  };
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--script" && I + 1 < argc) {
      ScriptPath = argv[++I];
    } else if (Arg == "--autoschedule") {
      AutoSchedule = true;
    } else if (Arg.rfind("--autoschedule=", 0) == 0) {
      if (!intValue(Arg, 15))
        return usage(argv[0]);
      AutoSchedule = true;
      Streams = static_cast<unsigned>(V);
    } else if (Arg == "--reduce") {
      Reduce = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg.rfind("--batched=", 0) == 0) {
      std::string V = Arg.substr(10);
      if (V == "on") {
        Batched = true;
      } else if (V == "off") {
        Batched = false;
      } else {
        std::fprintf(stderr, "error: --batched takes on|off\n");
        return 2;
      }
    } else if (Arg.rfind("--kernels=", 0) == 0) {
      std::string V = Arg.substr(10);
      if (V == "interp") {
        KernelMode = exec::KernelMode::Interp;
      } else if (V == "jit") {
        KernelMode = exec::KernelMode::Jit;
      } else {
        std::fprintf(stderr, "error: --kernels takes interp|jit\n");
        return 2;
      }
    } else if (Arg == "--dump-plan") {
      DumpPlan = true;
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--verify=strict") {
      Verify = VerifyStrict = true;
    } else if (Arg == "--report") {
      Report = true;
    } else if (Arg == "--report=json") {
      Report = ReportJson = true;
    } else if (Arg == "--harden") {
      Harden = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        std::fprintf(stderr, "error: --trace needs a file path\n");
        return 2;
      }
    } else if (Arg == "--metrics") {
      Metrics = true;
    } else if (Arg.rfind("--size=", 0) == 0) {
      if (!intValue(Arg, 7))
        return usage(argv[0]);
      SizeN = V;
      if (SizeN < 1) {
        std::fprintf(stderr, "error: --size must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--threads=", 0) == 0) {
      if (!intValue(Arg, 10))
        return usage(argv[0]);
      Threads = static_cast<int>(V);
    } else if (Arg.rfind("--shards=", 0) == 0) {
      if (!intValue(Arg, 9))
        return usage(argv[0]);
      Shards = static_cast<int>(V);
      if (Shards < 1) {
        std::fprintf(stderr, "error: --shards must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--mem-budget=", 0) == 0) {
      if (!intValue(Arg, 13))
        return usage(argv[0]);
      MemBudget = V;
      if (MemBudget < 1) {
        std::fprintf(stderr, "error: --mem-budget must be positive\n");
        return 2;
      }
    } else if (Arg.rfind("--emit=", 0) == 0) {
      Emit = Arg.substr(7);
    } else if (Arg == "-o" && I + 1 < argc) {
      OutputPath = argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      InputPath = Arg;
    }
  }
  if (InputPath.empty())
    return usage(argv[0]);

  std::string Source;
  if (!readFile(InputPath, Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", InputPath.c_str());
    return 1;
  }
  parser::ParseResult Parsed = parser::parseLoopChain(Source);
  if (!Parsed) {
    // formatted() renders "line L, column C: message" plus the offending
    // logical line and an aligned caret when position info is available.
    std::fprintf(stderr, "%s: error: %s\n", InputPath.c_str(),
                 Parsed.formatted().c_str());
    return 1;
  }
  driver::Scheduled Sched(std::move(*Parsed.Chain));
  graph::Graph &G = *Sched.G;

  if (!ScriptPath.empty()) {
    std::string Script;
    if (!readFile(ScriptPath, Script)) {
      std::fprintf(stderr, "error: cannot read %s\n", ScriptPath.c_str());
      return 1;
    }
    parser::ScriptResult R = parser::runScript(G, Script);
    for (const std::string &Line : R.Log)
      std::fprintf(stderr, "script: %s\n", Line.c_str());
    if (!R) {
      std::fprintf(stderr, "%s:%u: error: %s\n", ScriptPath.c_str(), R.Line,
                   R.Error.c_str());
      return 1;
    }
  }
  if (AutoSchedule) {
    graph::AutoScheduleOptions Options;
    Options.MaxStreams = Streams;
    graph::AutoScheduleResult R = graph::autoSchedule(G, Options);
    std::fprintf(stderr, "autoschedule: %u moves, S_R %s -> %s\n",
                 R.StepsApplied, R.InitialRead.toString().c_str(),
                 R.FinalRead.toString().c_str());
  }
  if (Reduce)
    storage::reduceStorage(G);

  if (Shards > 0) {
    if (!Report) {
      std::fprintf(stderr,
                   "error: --shards needs --report (the drill's outcome is "
                   "the recovery report)\n");
      return 2;
    }
    return runShardsMode(*Sched.Chain, Shards, Threads, SizeN, ReportJson,
                         Metrics, OutputPath);
  }

  bool VerifyFailed = false, ReportFailed = false, TraceFailed = false;
  const bool Trace = Metrics || !TracePath.empty();
  std::string Output;
  if (Stats || DumpPlan || Verify || Report || Trace) {
    // Lower the (transformed) schedule at the concrete size and, for
    // --stats, execute it with instrumentation. Parsed chains carry no
    // executable kernels; the driver's sum-of-reads stand-ins fill in —
    // timing and traffic shapes are meaningful regardless of the
    // arithmetic.
    driver::LowerOptions LOpts;
    LOpts.Size = SizeN;
    LOpts.Harden = Harden;
    auto Lowered = driver::Lowered::lower(std::move(Sched), {}, LOpts);
    if (!Lowered) {
      std::fprintf(stderr, "error: %s\n",
                   Lowered.error().toString().c_str());
      return 1;
    }
    const driver::Lowered &L = *Lowered;
    const exec::ExecutionPlan &Plan = L.Plan;
    const codegen::KernelRegistry &Kernels = L.Kernels;
    auto freshStore = [&](const storage::StoragePlan &SP) {
      storage::ConcreteStorage S(SP, L.Env);
      L.seedStore(S);
      return S;
    };

    std::ostringstream OS;
    if (DumpPlan)
      OS << Plan.dump();
    if (Verify) {
      verify::Diagnostics Diags = L.verify();
      // Whenever the JIT path is selectable, statically validate the
      // emissions it would compile (K codes) alongside the plan-level
      // V codes. Purely symbolic: no engine, no host compiler.
      if (exec::effectiveKernelMode(KernelMode) == exec::KernelMode::Jit) {
        verify::Diagnostics KDiags =
            verify::verifyPlanKernels(Plan, Kernels);
        for (const verify::Diagnostic &D : KDiags.all())
          Diags.add(D);
      }
      OS << Diags.toString();
      if (VerifyStrict && Diags.hasErrors())
        VerifyFailed = true;
    }
    if (Stats) {
      exec::RunOptions Opts;
      Opts.Threads = Threads;
      Opts.CollectStats = true;
      storage::ConcreteStorage Store = freshStore(L.SPlan);
      exec::PlanStats PS = exec::runPlan(Plan, Kernels, Store, Opts);
      OS << PS.toString();
      graph::TrafficReport TR = graph::measureTraffic(*L.G, SizeN);
      OS << "traffic at N=" << SizeN << ": measured " << PS.totalRead()
         << ", enumerated " << TR.Total << ", model S_R " << TR.ModelTotal
         << ", model accuracy " << TR.modelAccuracy() << "\n";
      // Counters come from the serialized scalar oracle above; wall time
      // for A/B comparisons comes from an uninstrumented run on fresh
      // storage that honors --threads and --batched.
      storage::ConcreteStorage TimedStore = freshStore(L.SPlan);
      exec::RunOptions TimedOpts;
      TimedOpts.Threads = Threads;
      TimedOpts.Batched = Batched;
      TimedOpts.MemBudget = MemBudget;
      TimedOpts.Kernels = KernelMode;
      exec::PlanStats TPS = exec::runPlan(Plan, Kernels, TimedStore,
                                          TimedOpts);
      OS << "timed run (batched " << (Batched ? "on" : "off")
         << ", threads " << TPS.ThreadsUsed << "): " << TPS.Seconds
         << " s\n";
    }
    if (Trace) {
      // Dedicated traced run on fresh storage (counters then cover exactly
      // one execution honoring --threads/--batched, diffable against the
      // --stats oracle in the same invocation).
      storage::ConcreteStorage TraceStore = freshStore(L.SPlan);
      obs::Tracer &Tracer = obs::Tracer::global();
      Tracer.enable();
      exec::RunOptions TOpts;
      TOpts.Threads = Threads;
      TOpts.Batched = Batched;
      TOpts.MemBudget = MemBudget;
      TOpts.Kernels = KernelMode;
      exec::runPlan(Plan, Kernels, TraceStore, TOpts);
      obs::Trace T = Tracer.drain();
      Tracer.disable();
      verify::Diagnostics TDiags = obs::checkTrace(Plan, T);
      if (!TracePath.empty()) {
        std::ofstream TF(TracePath);
        if (!TF) {
          std::fprintf(stderr, "error: cannot write %s\n", TracePath.c_str());
          return 1;
        }
        TF << T.toChromeJson();
        std::fprintf(stderr, "wrote trace: %s (%zu spans)\n",
                     TracePath.c_str(), T.Spans.size());
      }
      if (Metrics)
        OS << T.summary();
      if (TDiags.hasErrors()) {
        OS << TDiags.toString();
        TraceFailed = true;
      } else if (Metrics) {
        OS << "trace check: ok (" << T.Spans.size() << " spans)\n";
      }
    }
    if (Report) {
      // The fallback rung runs the untransformed chain's original schedule
      // against its own storage plan.
      storage::ConcreteStorage FbStore = freshStore(L.FbSPlan);
      storage::ConcreteStorage ReportStore = freshStore(L.SPlan);
      exec::RecoverOptions ROpts;
      ROpts.Run.Threads = Threads;
      ROpts.Run.Batched = Batched;
      ROpts.Run.Harden = Harden;
      ROpts.Run.MemBudget = MemBudget;
      ROpts.Run.Kernels = KernelMode;
      ROpts.StrictVerify = true;
      ROpts.VerifyKernels = &Kernels;
      ROpts.Fallback = &L.FbPlan;
      ROpts.FallbackStore = &FbStore;
      exec::RunReport RR =
          exec::runWithRecovery(Plan, Kernels, ReportStore, ROpts);
      if (!ReportJson) {
        // The completed run's dispatch, one refusal dimension per column:
        // an instruction may batch fine yet stay on the interpreted bodies.
        // A scalar run has no record.
        const bool Jit =
            exec::effectiveKernelMode(KernelMode) == exec::KernelMode::Jit;
        for (const exec::PlanStats::DispatchStat &D : RR.Stats.Dispatch) {
          if (D.Refusal == exec::RowRefusal::External)
            continue;
          const bool Batched = D.Refusal == exec::RowRefusal::None;
          OS << "dispatch " << D.Label << ": batched=";
          if (Batched)
            OS << "yes";
          else
            OS << "no (" << exec::rowRefusalName(D.Refusal) << ")";
          if (Jit) {
            OS << " jit=" << exec::jitRefusalName(D.Jit);
            if (Batched)
              OS << " (" << D.JitStmts << "/" << D.Stmts << " stmts)";
            if (!D.JitDetail.empty())
              OS << " [" << D.JitDetail << "]";
          }
          OS << "\n";
        }
      }
      OS << (ReportJson ? RR.toJson() + "\n" : RR.toString());
      if (!RR.Completed)
        ReportFailed = true;
    }
    Output = OS.str();
  } else if (Emit == "text") {
    Output = graph::toText(G);
  } else if (Emit == "cost") {
    Output = graph::computeCost(G).toString();
  } else if (Emit == "dot") {
    Output = graph::toDot(G, {true, InputPath});
  } else if (Emit == "iscc") {
    Output = codegen::exportIscc(G);
  } else if (Emit == "storage") {
    Output = storage::StoragePlan::build(G).toString();
  } else if (Emit == "code") {
    storage::StoragePlan Plan = storage::StoragePlan::build(G);
    codegen::PrintOptions Options;
    Options.Plan = &Plan;
    codegen::AstPtr Ast = codegen::generate(G);
    Output = codegen::printC(G, *Ast, Options);
  } else if (Emit == "pragmas") {
    Output = parser::printPragmas(G.chain());
  } else {
    std::fprintf(stderr, "error: unknown --emit kind '%s'\n", Emit.c_str());
    return 2;
  }

  if (OutputPath.empty()) {
    std::fputs(Output.c_str(), stdout);
  } else {
    std::ofstream Out(OutputPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
      return 1;
    }
    Out << Output;
  }
  return (VerifyFailed || ReportFailed || TraceFailed) ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  // The library reports recoverable failures as StatusError; anything that
  // escapes to here becomes a structured diagnostic, never a terminate().
  try {
    return runTool(argc, argv);
  } catch (const support::StatusError &E) {
    std::fprintf(stderr, "error: %s\n", E.status().toString().c_str());
    return 1;
  }
}
