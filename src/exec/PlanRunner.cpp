//===- exec/PlanRunner.cpp - Execute compiled plans -----------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "exec/PlanRunner.h"

#include "exec/FaultInjector.h"
#include "exec/RowPlan.h"
#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"
#include "jit/JitEngine.h"
#include "obs/Trace.h"
#include "storage/LivenessAllocator.h"
#include "support/Errors.h"
#include "support/Status.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Dense distinct-element tracker for one instrumented edge. Identities
/// are pre-wrap linear indices, so the index range is bounded by the
/// stream hulls of the plan (not by any modulo size); the Collector sizes
/// each bitset from those hulls up front. One bit per producible element
/// replaces the hash node per distinct element the old unordered_set
/// spent, which dominated --stats runs at large N.
struct EdgeBits {
  std::int64_t Lo = 0;
  std::vector<std::uint64_t> Words;
  std::int64_t Distinct = 0;

  void insert(std::int64_t V) {
    const std::uint64_t Bit = static_cast<std::uint64_t>(V - Lo);
    std::uint64_t &W = Words[Bit >> 6];
    const std::uint64_t M = std::uint64_t{1} << (Bit & 63);
    if (!(W & M)) {
      W |= M;
      ++Distinct;
    }
  }
};

/// Mutable measurement state for one run.
struct Collector {
  /// Per-edge distinct element identities (pre-modulo linear indices) and
  /// raw load counts. Only populated under CollectStats.
  std::vector<EdgeBits> Edges;
  std::vector<std::int64_t> EdgeRaw;
  bool CountEdges = false;

  /// Per-label node aggregation, pre-registered in instruction order so
  /// the report is deterministic.
  std::vector<PlanStats::NodeStat> Nodes;
  std::vector<std::size_t> InstrNode; ///< Instr index -> Nodes index.
  /// Per-participant breakdown of the same credits (the load-imbalance
  /// view PlanStats::Workers reports).
  std::vector<PlanStats::WorkerStat> Workers;
  std::mutex NodeMu;

  /// Non-null while the global tracer is recording this run; TraceLabels
  /// then holds one interned label per instruction and TraceRun0 the
  /// run's start in tracer time (for the whole-run span).
  obs::Tracer *Tr = nullptr;
  std::vector<std::int32_t> TraceLabels;
  std::int64_t TraceRun0 = 0;

  Collector(const ExecutionPlan &Plan, bool CountEdges, int Threads)
      : CountEdges(CountEdges) {
    Workers.resize(static_cast<std::size_t>(Threads < 1 ? 1 : Threads));
    obs::Tracer &Tracer = obs::Tracer::global();
    if (Tracer.enabled()) {
      Tr = &Tracer;
      TraceLabels.reserve(Plan.Instrs.size());
      for (const NestInstr &I : Plan.Instrs)
        TraceLabels.push_back(Tracer.intern(I.Label));
      TraceRun0 = Tracer.nowNs();
    }
    if (CountEdges) {
      std::vector<std::int64_t> Min(Plan.Edges.size(), 0);
      std::vector<std::int64_t> Max(Plan.Edges.size(), -1);
      std::vector<bool> Seen(Plan.Edges.size(), false);
      for (const NestInstr &I : Plan.Instrs) {
        bool Empty = false;
        for (const LoopLevel &L : I.Loops)
          Empty = Empty || L.Lo > L.Hi;
        if (Empty)
          continue;
        for (const StmtRecord &S : I.Stmts)
          for (const Stream &R : S.Reads) {
            if (R.Edge < 0)
              continue;
            std::int64_t Lo = R.Base, Hi = R.Base;
            for (std::size_t Lv = 0; Lv < I.Loops.size(); ++Lv) {
              const std::int64_t A = I.Loops[Lv].Lo * R.LevelStrides[Lv];
              const std::int64_t B = I.Loops[Lv].Hi * R.LevelStrides[Lv];
              Lo += std::min(A, B);
              Hi += std::max(A, B);
            }
            const auto E = static_cast<std::size_t>(R.Edge);
            if (!Seen[E]) {
              Seen[E] = true;
              Min[E] = Lo;
              Max[E] = Hi;
            } else {
              Min[E] = std::min(Min[E], Lo);
              Max[E] = std::max(Max[E], Hi);
            }
          }
      }
      Edges.resize(Plan.Edges.size());
      EdgeRaw.assign(Plan.Edges.size(), 0);
      for (std::size_t E = 0; E < Edges.size(); ++E) {
        Edges[E].Lo = Min[E];
        const std::int64_t Extent = Seen[E] ? Max[E] - Min[E] + 1 : 0;
        Edges[E].Words.assign(static_cast<std::size_t>((Extent + 63) / 64), 0);
      }
    }
    std::map<std::string, std::size_t> ByLabel;
    for (const NestInstr &I : Plan.Instrs) {
      auto [It, Inserted] = ByLabel.emplace(I.Label, Nodes.size());
      if (Inserted)
        Nodes.push_back(PlanStats::NodeStat{I.Label, 0.0, 0, 0});
      InstrNode.push_back(It->second);
    }
  }

  void credit(std::size_t Instr, int Participant, double Seconds,
              std::int64_t Points, std::int64_t RawReads) {
    std::lock_guard<std::mutex> Lock(NodeMu);
    PlanStats::NodeStat &N = Nodes[InstrNode[Instr]];
    N.Seconds += Seconds;
    N.Points += Points;
    N.RawReads += RawReads;
    // Nested inline regions report participant 0; clamp defensively so a
    // stray id can never write out of bounds.
    const std::size_t W =
        Participant >= 0 && static_cast<std::size_t>(Participant) <
                                Workers.size()
            ? static_cast<std::size_t>(Participant)
            : 0;
    PlanStats::WorkerStat &WS = Workers[W];
    WS.Seconds += Seconds;
    ++WS.Tasks;
    WS.Points += Points;
    WS.RawReads += RawReads;
  }
};

/// Interprets one compiled instruction against the space table \p Spaces
/// (index = space id, value = buffer base pointer).
void runInstr(const NestInstr &I, const codegen::KernelRegistry &Kernels,
              double *const *Spaces, Collector &C, std::size_t InstrIdx,
              int Participant) {
  Clock::time_point Start = Clock::now();
  const int L = static_cast<int>(I.Loops.size());
  std::vector<std::int64_t> Iter(L);
  for (int Lv = 0; Lv < L; ++Lv) {
    if (I.Loops[Lv].Lo > I.Loops[Lv].Hi) {
      C.credit(InstrIdx, Participant, secondsSince(Start), 0, 0);
      return;
    }
    Iter[Lv] = I.Loops[Lv].Lo;
  }
  // Hoist the per-statement kernel lookups out of the loop.
  std::vector<const codegen::KernelRegistry::Kernel *> Bodies;
  Bodies.reserve(I.Stmts.size());
  for (const StmtRecord &S : I.Stmts)
    Bodies.push_back(&Kernels.get(S.KernelId));

  std::vector<double> Reads;
  std::int64_t Points = 0, RawReads = 0, Wraps = 0;
  for (;;) {
    for (std::size_t SI = 0; SI < I.Stmts.size(); ++SI) {
      const StmtRecord &S = I.Stmts[SI];
      bool Admit = true;
      for (const GuardBound &Gd : S.Guards)
        if (Iter[Gd.Level] < Gd.Lo || Iter[Gd.Level] > Gd.Hi) {
          Admit = false;
          break;
        }
      if (!Admit)
        continue;
      Reads.clear();
      for (const Stream &R : S.Reads) {
        std::int64_t Lin = R.Base;
        for (int Lv = 0; Lv < L; ++Lv)
          Lin += Iter[Lv] * R.LevelStrides[Lv];
        std::int64_t Idx = Lin;
        if (R.Modulo) {
          Idx %= R.ModSize;
          if (Idx < 0)
            Idx += R.ModSize;
          Wraps += Idx != Lin;
        }
        Reads.push_back(Spaces[R.Space][Idx]);
        if (C.CountEdges && R.Edge >= 0) {
          C.Edges[R.Edge].insert(Lin);
          ++C.EdgeRaw[R.Edge];
        }
      }
      const Stream &W = S.Write;
      std::int64_t PreLin = W.Base;
      for (int Lv = 0; Lv < L; ++Lv)
        PreLin += Iter[Lv] * W.LevelStrides[Lv];
      std::int64_t Lin = PreLin;
      if (W.Modulo) {
        Lin %= W.ModSize;
        if (Lin < 0)
          Lin += W.ModSize;
        Wraps += Lin != PreLin;
      }
      double &Target = Spaces[W.Space][Lin];
      Target = (*Bodies[SI])(Reads, Target);
      ++Points;
      RawReads += static_cast<std::int64_t>(Reads.size());
    }
    int Lv = L - 1;
    for (; Lv >= 0; --Lv) {
      if (++Iter[Lv] <= I.Loops[Lv].Hi)
        break;
      Iter[Lv] = I.Loops[Lv].Lo;
    }
    if (Lv < 0)
      break;
  }
  C.credit(InstrIdx, Participant, secondsSince(Start), Points, RawReads);
  if (C.Tr) {
    C.Tr->add(obs::Counter::PointsExecuted, Points);
    C.Tr->add(obs::Counter::RawReads, RawReads);
    C.Tr->add(obs::Counter::BytesMoved, 8 * (Points + RawReads));
    C.Tr->add(obs::Counter::ModuloWraps, Wraps);
  }
}

/// Runs task \p T of \p Plan with the given space table and participant.
/// \p Rows, when non-null, is the per-instruction row-batched compilation
/// (indexed by instruction); instructions whose entry is engaged run
/// through RowPlan::run, the rest through the scalar interpreter.
void runTask(const ExecutionPlan &Plan, int T,
             const codegen::KernelRegistry &Kernels, double *const *Spaces,
             const std::optional<RowPlan> *Rows, Collector &C,
             int Participant) {
  int InstrIdx = Plan.Tasks[T].Instr;
  const NestInstr &I = Plan.Instrs[InstrIdx];
  FaultInjector &FI = FaultInjector::global();
  if (FI.shouldFire(FaultSite::Task))
    support::raise(support::ErrorCode::FaultInjected,
                   "injected task failure: task " + std::to_string(T) +
                       " (" + I.Label + ")");
  // Span bracket: a task that throws records no span (the trace then shows
  // the task as never having completed, which is the truth).
  obs::Tracer *Tr = C.Tr;
  const std::int64_t Span0 = Tr ? Tr->nowNs() : 0;
  auto EndSpan = [&] {
    if (!Tr)
      return;
    obs::TraceSpan S;
    S.T0 = Span0;
    S.T1 = Tr->nowNs();
    S.Kind = obs::SpanKind::Task;
    S.Label = C.TraceLabels[static_cast<std::size_t>(InstrIdx)];
    S.Task = T;
    S.Instr = InstrIdx;
    S.A0 = Participant;
    Tr->record(S);
    Tr->add(obs::Counter::TasksExecuted, 1);
  };
  if (I.External) {
    Clock::time_point Start = Clock::now();
    I.External(Participant);
    C.credit(InstrIdx, Participant, secondsSince(Start), 0, 0);
    if (Tr)
      Tr->add(obs::Counter::ExternalTasks, 1);
    EndSpan();
    return;
  }
  if (FI.shouldFire(FaultSite::Kernel))
    support::raise(support::ErrorCode::FaultInjected,
                   "injected kernel exception in " + I.Label);
  if (Rows && Rows[InstrIdx]) {
    Clock::time_point Start = Clock::now();
    std::int64_t Points = 0, RawReads = 0;
    RowRunCounters RC;
    Rows[InstrIdx]->run(Spaces, Points, RawReads, Tr ? &RC : nullptr);
    C.credit(InstrIdx, Participant, secondsSince(Start), Points, RawReads);
    if (Tr) {
      Tr->add(obs::Counter::BatchedInstrs, 1);
      Tr->add(obs::Counter::BatchedSegments, RC.Segments);
      Tr->add(obs::Counter::ModuloWraps, RC.Wraps);
      Tr->add(obs::Counter::PointsExecuted, Points);
      Tr->add(obs::Counter::RawReads, RawReads);
      Tr->add(obs::Counter::BytesMoved, 8 * (Points + RawReads));
    }
    EndSpan();
    return;
  }
  runInstr(I, Kernels, Spaces, C, InstrIdx, Participant);
  if (Tr)
    Tr->add(obs::Counter::ScalarInstrs, 1);
  EndSpan();
}

PlanStats finish(const ExecutionPlan &Plan, Collector &C, double Seconds,
                 int ThreadsRequested, int ThreadsUsed,
                 bool SerializedForStats) {
  PlanStats Stats;
  Stats.Seconds = Seconds;
  Stats.ThreadsRequested = ThreadsRequested;
  Stats.ThreadsUsed = ThreadsUsed;
  Stats.SerializedForStats = SerializedForStats;
  Stats.Nodes = std::move(C.Nodes);
  Stats.Workers = std::move(C.Workers);
  if (C.CountEdges) {
    for (std::size_t E = 0; E < Plan.Edges.size(); ++E) {
      PlanStats::EdgeStat ES;
      ES.Array = Plan.Edges[E].Array;
      ES.Consumer = Plan.Edges[E].Consumer;
      ES.Multiplicity = Plan.Edges[E].Multiplicity;
      ES.Distinct = C.Edges[E].Distinct;
      ES.Raw = C.EdgeRaw[E];
      Stats.Edges.push_back(std::move(ES));
    }
  }
  if (C.Tr) {
    obs::TraceSpan S;
    S.T0 = C.TraceRun0;
    S.T1 = C.Tr->nowNs();
    S.Kind = obs::SpanKind::Run;
    S.Label = C.Tr->intern("plan-run");
    S.A1 = ThreadsUsed;
    C.Tr->record(S);
  }
  return Stats;
}

/// Plan-vs-storage validation: every compiled stream must address its
/// space within bounds. The hull math matches the Collector's, refined by
/// each statement's guards; modulo streams wrap into [0, ModSize), so for
/// them only the window itself must fit. A plan compiled against storage
/// that later shrank (or a tampered plan) fails here with a structured
/// diagnostic instead of reading or writing out of bounds.
void validatePlan(const ExecutionPlan &Plan,
                  const storage::ConcreteStorage &Store) {
  if (Plan.NumSpaces > Store.numSpaces())
    support::raise(support::ErrorCode::PlanInvalid,
                   "plan addresses " + std::to_string(Plan.NumSpaces) +
                       " spaces but storage has " +
                       std::to_string(Store.numSpaces()));
  for (const NestInstr &I : Plan.Instrs) {
    if (I.External)
      continue;
    bool EmptyNest = false;
    for (const LoopLevel &L : I.Loops)
      EmptyNest = EmptyNest || L.Lo > L.Hi;
    if (EmptyNest)
      continue;
    for (const StmtRecord &S : I.Stmts) {
      auto Check = [&](const Stream &St, const char *What) {
        if (St.Space >= Store.numSpaces())
          support::raise(support::ErrorCode::PlanInvalid,
                         "instruction " + I.Label + ": " + What +
                             " stream addresses unknown space " +
                             std::to_string(St.Space));
        const auto Size =
            static_cast<std::int64_t>(Store.space(St.Space).size());
        if (St.Modulo) {
          if (St.ModSize < 1 || St.ModSize > Size)
            support::raise(support::ErrorCode::PlanInvalid,
                           "instruction " + I.Label + ": modulo window " +
                               std::to_string(St.ModSize) +
                               " does not fit space " +
                               std::to_string(St.Space) + " of size " +
                               std::to_string(Size));
          return;
        }
        std::int64_t Lo = St.Base, Hi = St.Base;
        for (std::size_t Lv = 0; Lv < I.Loops.size(); ++Lv) {
          std::int64_t L0 = I.Loops[Lv].Lo, H0 = I.Loops[Lv].Hi;
          for (const GuardBound &Gd : S.Guards)
            if (Gd.Level == Lv) {
              L0 = std::max(L0, Gd.Lo);
              H0 = std::min(H0, Gd.Hi);
            }
          if (L0 > H0)
            return; // Guard-empty statement: never runs.
          const std::int64_t A = L0 * St.LevelStrides[Lv];
          const std::int64_t B = H0 * St.LevelStrides[Lv];
          Lo += std::min(A, B);
          Hi += std::max(A, B);
        }
        if (Lo < 0 || Hi >= Size)
          support::raise(support::ErrorCode::PlanInvalid,
                         "instruction " + I.Label + ": " + What +
                             " stream spans [" + std::to_string(Lo) + ", " +
                             std::to_string(Hi) + "] outside space " +
                             std::to_string(St.Space) + " of size " +
                             std::to_string(Size));
      };
      Check(S.Write, "write");
      for (const Stream &R : S.Reads)
        Check(R, "read");
    }
  }
}

/// Redzone padding (elements) on each side of a hardened shadow buffer.
constexpr std::size_t RedzonePad = 16;
/// Recognizable canary value; any overwrite (including NaN) trips it.
constexpr double RedzoneCanary = -6.02214076e123;

} // namespace

// Concrete footprint model for the untiled parallel path (and, exported,
// for the serving layer's admission control): space sizes from the store,
// per-task touch sets from the plan's statement streams.
storage::FootprintTracker
exec::buildFootprintTracker(const ExecutionPlan &Plan,
                            const storage::ConcreteStorage &Store) {
  std::vector<storage::FootprintTracker::SpaceInfo> Spaces(Plan.NumSpaces);
  for (std::size_t S = 0; S < Plan.NumSpaces; ++S) {
    Spaces[S].Bytes =
        static_cast<std::int64_t>(Store.space(S).size() * sizeof(double));
    Spaces[S].Persistent = Plan.SpacePersistent[S];
  }
  std::vector<std::vector<unsigned>> TaskSpaces(Plan.Tasks.size());
  for (std::size_t T = 0; T < Plan.Tasks.size(); ++T) {
    const NestInstr &I = Plan.Instrs[Plan.Tasks[T].Instr];
    for (const StmtRecord &St : I.Stmts) {
      TaskSpaces[T].push_back(St.Write.Space);
      for (const Stream &R : St.Reads)
        TaskSpaces[T].push_back(R.Space);
    }
  }
  return storage::FootprintTracker(std::move(Spaces), std::move(TaskSpaces));
}

namespace {

/// Scheduling units of a parallel run, as plan task ids. With \p ByTile
/// consecutive tasks of one tile form one unit (the tile-parallel
/// contract: a tile's instructions run back to back on one worker);
/// otherwise every task is its own unit, in plan order.
std::vector<std::vector<int>> schedulingUnits(const ExecutionPlan &Plan,
                                              bool ByTile) {
  std::vector<std::vector<int>> Units;
  int LastTile = -2;
  for (std::size_t T = 0; T < Plan.Tasks.size(); ++T) {
    int Tile = ByTile ? Plan.Instrs[Plan.Tasks[T].Instr].Tile : -1;
    if (Units.empty() || Tile < 0 || Tile != LastTile)
      Units.emplace_back();
    Units.back().push_back(static_cast<int>(T));
    LastTile = Tile;
  }
  return Units;
}

/// The one place a parallel run builds and dispatches its TaskGraph: one
/// task per unit, running \p Work(Unit, Participant), with the plan's
/// task dependences lifted onto units, under the list scheduler at
/// \p Threads. \p Memory is the footprint model (its task ids are plan
/// task ids, so units must then be single tasks in plan order), or null on
/// paths that model no shared storage — there a nonzero \p Budget raises
/// E016 naming \p Unmodeled instead of silently not binding, and the
/// recovery ladder turns that into an L007 descent to the serial rung.
void runTaskGraph(
    const ExecutionPlan &Plan, const std::vector<std::vector<int>> &Units,
    int Threads,
    const std::function<void(const std::vector<int> &, int)> &Work,
    std::int64_t Budget, storage::FootprintTracker *Memory,
    const char *Unmodeled = nullptr) {
  if (Budget > 0 && !Memory)
    support::raise(support::ErrorCode::MemBudgetInfeasible,
                   std::string("memory budget not enforceable: ") +
                       Unmodeled);
  TaskGraph TG;
  std::vector<int> UnitOf(Plan.Tasks.size());
  for (std::size_t U = 0; U < Units.size(); ++U) {
    const std::vector<int> &Unit = Units[U];
    TG.addTask([&Work, &Unit](int Participant) { Work(Unit, Participant); });
    for (int T : Unit)
      UnitOf[static_cast<std::size_t>(T)] = static_cast<int>(U);
  }
  std::set<std::pair<int, int>> Seen;
  for (std::size_t T = 0; T < Plan.Tasks.size(); ++T)
    for (int D : Plan.Tasks[T].Deps) {
      const int From = UnitOf[static_cast<std::size_t>(D)], To = UnitOf[T];
      if (From != To && Seen.emplace(From, To).second)
        TG.addDependence(From, To);
    }
  TaskGraph::ListOptions LO;
  LO.Threads = Threads;
  LO.MemBudget = Budget;
  LO.Memory = Memory;
  TG.runList(LO);
}

} // namespace

std::string_view exec::kernelModeName(KernelMode K) {
  return K == KernelMode::Jit ? "jit" : "interp";
}

KernelMode exec::effectiveKernelMode(KernelMode Requested) {
  if (const char *Env = std::getenv("LCDFG_JIT")) {
    const std::string_view V(Env);
    if (V == "on" || V == "jit" || V == "1")
      return KernelMode::Jit;
    if (V == "off" || V == "interp" || V == "0")
      return KernelMode::Interp;
  }
  return Requested;
}

std::int64_t PlanStats::totalRead() const {
  std::int64_t Total = 0;
  for (const EdgeStat &E : Edges)
    Total += E.total();
  return Total;
}

double PlanStats::idleShare(std::size_t W) const {
  if (W >= Workers.size() || Seconds <= 0.0)
    return 0.0;
  const double Share = 1.0 - Workers[W].Seconds / Seconds;
  return std::min(1.0, std::max(0.0, Share));
}

double PlanStats::maxIdleShare() const {
  double Max = 0.0;
  for (std::size_t W = 0; W < Workers.size(); ++W)
    Max = std::max(Max, idleShare(W));
  return Max;
}

std::string PlanStats::toString() const {
  std::ostringstream OS;
  OS << "plan run: " << Seconds << " s (threads: " << ThreadsUsed;
  if (SerializedForStats)
    OS << ", serialized for stats collection; " << ThreadsRequested
       << " requested";
  OS << ")\n";
  for (const NodeStat &N : Nodes) {
    OS << "  node " << N.Label << ": " << N.Seconds << " s";
    if (N.Points)
      OS << ", " << N.Points << " points, " << N.RawReads << " reads";
    OS << "\n";
  }
  if (Workers.size() > 1) {
    double MaxSec = 0.0, MinSec = -1.0;
    for (std::size_t W = 0; W < Workers.size(); ++W) {
      const WorkerStat &WS = Workers[W];
      OS << "  worker " << W << ": " << WS.Seconds << " s, " << WS.Tasks
         << " tasks";
      if (WS.Points)
        OS << ", " << WS.Points << " points, " << WS.RawReads << " reads";
      OS << ", idle " << idleShare(W) * 100.0 << "%";
      OS << "\n";
      if (WS.Tasks) {
        MaxSec = std::max(MaxSec, WS.Seconds);
        MinSec = MinSec < 0 ? WS.Seconds : std::min(MinSec, WS.Seconds);
      }
    }
    if (MinSec > 0)
      OS << "  imbalance: max/min worker busy time " << MaxSec / MinSec
         << "x, max idle share " << maxIdleShare() * 100.0 << "%\n";
  }
  for (const EdgeStat &E : Edges)
    OS << "  edge " << E.Array << " -> " << E.Consumer << " (x"
       << E.Multiplicity << "): " << E.Distinct << " distinct, " << E.Raw
       << " raw, " << E.total() << " total\n";
  if (!Edges.empty())
    OS << "  measured total read: " << totalRead() << "\n";
  return OS.str();
}

PlanStats exec::runPlan(const ExecutionPlan &Plan,
                        const codegen::KernelRegistry &Kernels,
                        storage::ConcreteStorage &Store,
                        const RunOptions &Opts) {
  validatePlan(Plan, Store);
  const int Requested = ThreadPool::effectiveThreads(Opts.Threads);
  int Threads = Requested;
  const bool Serialized = Opts.CollectStats && Requested > 1;
  if (Opts.CollectStats)
    Threads = 1; // Element counting shares one collector.
  Collector C(Plan, Opts.CollectStats, Threads);

  // Row-batch the instructions once per run; the compiled plans are
  // immutable and shared by every worker. Stats runs stay on the scalar
  // interpreter, which owns the element counting.
  std::vector<std::optional<RowPlan>> Rows;
  const std::optional<RowPlan> *RowsPtr = nullptr;
  if (Opts.Batched && !Opts.CollectStats) {
    // Kernel provenance: under Jit mode each statement body is swapped for
    // a shape-specialized compiled kernel where the engine can produce
    // one; unspecializable statements keep the interpreted body (counted
    // as exec.jit.fallbacks so --metrics shows partial downgrades).
    jit::Engine *Jit = nullptr;
    if (effectiveKernelMode(Opts.Kernels) == KernelMode::Jit)
      Jit = Opts.Jit ? Opts.Jit : &jit::Engine::global();
    obs::Tracer &Tr = obs::Tracer::global();
    Rows.reserve(Plan.Instrs.size());
    for (const NestInstr &I : Plan.Instrs) {
      RowAnalysis RA = RowPlan::analyze(I, Kernels, Jit);
      if (Jit && RA.Plan)
        Tr.add(obs::Counter::JitFallbacks,
               static_cast<std::int64_t>(RA.Plan->Stmts.size()) - RA.JitStmts);
      Rows.push_back(std::move(RA.Plan));
    }
    RowsPtr = Rows.data();
  }

  Clock::time_point Start = Clock::now();

  // The caller's space table addresses the real storage — or, under
  // hardened mode, redzone-padded shadow buffers: persistent interiors
  // copied from the store, temporaries NaN-poisoned so a read-before-write
  // propagates a recognizable value instead of a silent stale zero.
  std::vector<std::vector<double>> Shadow;
  std::vector<double *> Shared(Plan.NumSpaces);
  if (Opts.Harden) {
    Shadow.resize(Plan.NumSpaces);
    for (std::size_t S = 0; S < Plan.NumSpaces; ++S) {
      const std::vector<double> &Real = Store.space(S);
      Shadow[S].assign(Real.size() + 2 * RedzonePad, RedzoneCanary);
      if (Plan.SpacePersistent[S])
        std::copy(Real.begin(), Real.end(), Shadow[S].begin() + RedzonePad);
      else
        std::fill(Shadow[S].begin() + static_cast<std::ptrdiff_t>(RedzonePad),
                  Shadow[S].end() - static_cast<std::ptrdiff_t>(RedzonePad),
                  std::numeric_limits<double>::quiet_NaN());
      Shared[S] = Shadow[S].data() + RedzonePad;
    }
  } else {
    for (std::size_t S = 0; S < Plan.NumSpaces; ++S)
      Shared[S] = Store.space(S).data();
  }

  // Post-run guard: check every redzone, scan persistent interiors for
  // escaped NaN, then publish the shadow interiors back to the store.
  // Raises E013-guard-tripped (leaving the store untouched) on violation.
  auto HardenGuard = [&]() {
    if (!Opts.Harden)
      return;
    for (std::size_t S = 0; S < Plan.NumSpaces; ++S) {
      const std::vector<double> &B = Shadow[S];
      for (std::size_t P = 0; P < RedzonePad; ++P)
        if (B[P] != RedzoneCanary || B[B.size() - 1 - P] != RedzoneCanary)
          throw support::StatusError(
              support::Status::error(support::ErrorCode::GuardTripped,
                                     "redzone violated on space " +
                                         std::to_string(S))
                  .withSubcode(GuardSubcodeRedzone));
      if (Plan.SpacePersistent[S])
        for (std::size_t E = RedzonePad; E < B.size() - RedzonePad; ++E)
          if (std::isnan(B[E]))
            throw support::StatusError(
                support::Status::error(support::ErrorCode::GuardTripped,
                                       "NaN escaped into persistent space " +
                                           std::to_string(S) + " at element " +
                                           std::to_string(E - RedzonePad) +
                                           " (read-before-write)")
                    .withSubcode(GuardSubcodeNanGuard));
    }
    for (std::size_t S = 0; S < Plan.NumSpaces; ++S)
      if (Plan.SpacePersistent[S])
        std::copy(Shadow[S].begin() + RedzonePad,
                  Shadow[S].end() - static_cast<std::ptrdiff_t>(RedzonePad),
                  Store.space(S).begin());
  };

  // Tile-parallel contract: every tile recomputes the temporaries it
  // reads, starting from clean scratch. Kernels may read their write
  // target's current value, so "clean" has to mean the same initial state
  // on every participant and in every order — reset non-persistent spaces
  // at each tile boundary instead of letting a tile accumulate onto
  // whatever the previous tile left behind.
  const double ScratchInit =
      Opts.Harden ? std::numeric_limits<double>::quiet_NaN() : 0.0;

  if (Threads <= 1 || Plan.Tasks.empty()) {
    // Serial: task order (always a valid topological order) — this is the
    // reference semantics every parallel run must reproduce. The budget
    // does not apply: serial order's footprint is the minimum any
    // admission policy could reach anyway.
    int LastTile = -2;
    for (std::size_t T = 0; T < Plan.Tasks.size(); ++T) {
      if (Plan.TileParallel) {
        int Tile = Plan.Instrs[Plan.Tasks[T].Instr].Tile;
        if (Tile >= 0 && Tile != LastTile)
          for (std::size_t S = 0; S < Plan.NumSpaces; ++S)
            if (!Plan.SpacePersistent[S])
              std::fill_n(Shared[S], Store.space(S).size(), ScratchInit);
        LastTile = Tile;
      }
      runTask(Plan, static_cast<int>(T), Kernels, Shared.data(), RowsPtr, C,
              0);
    }
    PlanStats St =
        finish(Plan, C, secondsSince(Start), Requested, 1, Serialized);
    HardenGuard();
    return St;
  }

  if (!Plan.TileParallel) {
    // Untiled (or tile-serial) plans: schedule individual tasks over the
    // shared storage; the conflict edges guarantee no two concurrent tasks
    // touch the same space. The footprint model always rides along (it
    // feeds the priority tie-break and the peak-live counter); the budget
    // binds only when the caller set one.
    storage::FootprintTracker Tracker = buildFootprintTracker(Plan, Store);
    runTaskGraph(
        Plan, schedulingUnits(Plan, /*ByTile=*/false), Threads,
        [&](const std::vector<int> &Unit, int Participant) {
          runTask(Plan, Unit.front(), Kernels, Shared.data(), RowsPtr, C,
                  Participant);
        },
        Opts.MemBudget, &Tracker);
    PlanStats St =
        finish(Plan, C, secondsSince(Start), Requested, Threads, false);
    HardenGuard();
    return St;
  }

  // Tile-parallel: each tile's instructions run back to back on one
  // worker. Non-persistent spaces are privatized per participant (tiles
  // recompute every temporary they read, so zero-filled private buffers
  // are sufficient); persistent spaces stay shared — terminal nests write
  // disjoint seed regions.
  std::vector<std::vector<std::vector<double>>> Private(
      static_cast<std::size_t>(Threads));
  std::vector<std::vector<double *>> Tables(static_cast<std::size_t>(Threads));
  Tables[0] = Shared; // The caller keeps the real temporaries.
  for (int P = 1; P < Threads; ++P) {
    Private[P].resize(Plan.NumSpaces);
    Tables[P] = Shared;
    for (std::size_t S = 0; S < Plan.NumSpaces; ++S)
      if (!Plan.SpacePersistent[S]) {
        // Tiles recompute every temporary they read, so zero-filled
        // private buffers suffice; hardened runs poison them too.
        Private[P][S].assign(Store.space(S).size(),
                             Opts.Harden
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : 0.0);
        Tables[P][S] = Private[P][S].data();
      }
  }

  // Tile-parallel temporaries are privatized per worker, so a shared-live
  // budget has nothing meaningful to charge: no footprint model here.
  runTaskGraph(
      Plan, schedulingUnits(Plan, /*ByTile=*/true), Threads,
      [&](const std::vector<int> &Unit, int Participant) {
        double *const *Spaces =
            Tables[static_cast<std::size_t>(Participant)].data();
        // Clean scratch per unit: participant 0 scribbles on the store's
        // own temporaries (unobservable after the run) and later units
        // reuse every participant's buffers, so reset rather than trust
        // whatever the previous tile left.
        for (std::size_t S = 0; S < Plan.NumSpaces; ++S)
          if (!Plan.SpacePersistent[S])
            std::fill_n(Spaces[S], Store.space(S).size(), ScratchInit);
        for (int T : Unit)
          runTask(Plan, T, Kernels, Spaces, RowsPtr, C, Participant);
      },
      Opts.MemBudget, nullptr,
      "tile-parallel runs privatize temporaries per worker");
  PlanStats St =
      finish(Plan, C, secondsSince(Start), Requested, Threads, false);
  HardenGuard();
  return St;
}

PlanStats exec::runPlan(const ExecutionPlan &Plan, const RunOptions &Opts) {
  for (const NestInstr &I : Plan.Instrs)
    if (!I.External)
      support::raise(support::ErrorCode::KernelMissing,
                     "runPlan: compiled instruction requires kernels and "
                     "storage");
  static const codegen::KernelRegistry NoKernels;
  int Threads = ThreadPool::effectiveThreads(Opts.Threads);
  Collector C(Plan, /*CountEdges=*/false, Threads);
  Clock::time_point Start = Clock::now();
  if (Threads <= 1) {
    for (std::size_t T = 0; T < Plan.Tasks.size(); ++T)
      runTask(Plan, static_cast<int>(T), NoKernels, nullptr, nullptr, C, 0);
    return finish(Plan, C, secondsSince(Start), Threads, 1, false);
  }
  // External plans own no storage, so there is no footprint to budget.
  runTaskGraph(
      Plan, schedulingUnits(Plan, /*ByTile=*/false), Threads,
      [&](const std::vector<int> &Unit, int Participant) {
        runTask(Plan, Unit.front(), NoKernels, nullptr, nullptr, C,
                Participant);
      },
      Opts.MemBudget, nullptr, "external-only plans own no storage");
  return finish(Plan, C, secondsSince(Start), Threads, Threads, false);
}
