//===- tests/exec/ListSchedulerTest.cpp -----------------------------------===//
//
// The work-stealing list scheduler, the only way a task DAG runs:
// dependence safety under steal storms, bit-identity against serial task
// order on every plan shape runPlan dispatches (untiled, tile-parallel,
// external-only), exception drain-and-rethrow (including injected task
// faults), the live-temporary budget (admission deferral, peak-live cap,
// E016 refusal up front, at a wedge, and on paths with no footprint
// model), and the memoized level/height queries.
//
//===----------------------------------------------------------------------===//

#include "exec/TaskGraph.h"

#include "exec/FaultInjector.h"
#include "exec/PlanRunner.h"
#include "exec/ThreadPool.h"
#include "graph/GraphBuilder.h"
#include "minifluxdiv/Spec.h"
#include "obs/Trace.h"
#include "storage/LivenessAllocator.h"
#include "support/Status.h"
#include "tiling/Tiling.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::exec;
using storage::FootprintTracker;

namespace {

/// Drains (and disables) the global tracer, returning the trace.
obs::Trace drainTrace() {
  obs::Trace T = obs::Tracer::global().drain();
  obs::Tracer::global().disable();
  return T;
}

/// MiniFluxDiv harness for plan-level scheduler comparisons (same shape
/// as the Recovery suite: seeded inputs, outputs in extent order).
struct Harness {
  ir::LoopChain Chain;
  codegen::KernelRegistry Kernels;
  graph::Graph G;
  storage::StoragePlan Plan;
  ParamEnv Env;

  explicit Harness(ir::LoopChain C, std::int64_t N)
      : Chain(std::move(C)), G(graph::buildGraph(Chain)),
        Plan(storage::StoragePlan::build(G, /*UseAllocation=*/false)),
        Env{{"N", N}} {
    mfd::registerKernels(Chain, Kernels);
  }

  storage::ConcreteStorage freshStore() {
    storage::ConcreteStorage Store(Plan, Env);
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentInput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            double V = 1.0;
            for (std::size_t D = 0; D < P.size(); ++D)
              V += 0.001 * static_cast<double>((D + 3) * P[D]);
            Store.at(Name, P) = V;
          });
    }
    return Store;
  }

  /// The chain under 4x4 overlapped tiling: a tile-parallel plan.
  ExecutionPlan tiledPlan(const storage::ConcreteStorage &Store) {
    return ExecutionPlan::fromTiling(
        Chain, tiling::overlappedTiling(Chain, {4, 4}, Env), Store, Env);
  }

  std::vector<double> outputs(storage::ConcreteStorage &Store) {
    std::vector<double> Out;
    for (const std::string &Name : Chain.arrayNames()) {
      if (Chain.array(Name).Kind != ir::StorageKind::PersistentOutput)
        continue;
      Chain.array(Name).Extent->forEachPoint(
          Env, [&](const std::vector<std::int64_t> &P) {
            Out.push_back(Store.at(Name, P));
          });
    }
    return Out;
  }
};

void expectBitIdentical(const std::vector<double> &Expected,
                        const std::vector<double> &Got) {
  ASSERT_EQ(Expected.size(), Got.size());
  for (std::size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Expected[I], Got[I]) << "flat index " << I;
}

} // namespace

TEST(ListScheduler, RunsEveryTaskOnceRespectingDependences) {
  // A layered DAG: 4 diamonds in sequence, each fanning out to 8 middles.
  TaskGraph TG;
  std::mutex Mu;
  std::vector<int> Done(4 * 10, 0);
  std::vector<int> Order;
  auto Mark = [&](int Id) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Done[static_cast<std::size_t>(Id)];
    Order.push_back(Id);
  };
  // Work receives the participant id, so bind each task's own id here.
  auto Add = [&] { return TG.addTask([&Mark, Id = TG.size()](int) { Mark(Id); }); };
  int Prev = -1;
  for (int D = 0; D < 4; ++D) {
    int Top = Add();
    if (Prev >= 0)
      TG.addDependence(Prev, Top);
    std::vector<int> Mids;
    for (int M = 0; M < 8; ++M) {
      int Mid = Add();
      TG.addDependence(Top, Mid);
      Mids.push_back(Mid);
    }
    int Bottom = Add();
    for (int Mid : Mids)
      TG.addDependence(Mid, Bottom);
    Prev = Bottom;
  }

  TaskGraph::ListOptions Opts;
  Opts.Threads = 4;
  TG.runList(Opts);

  for (std::size_t I = 0; I < Done.size(); ++I)
    EXPECT_EQ(Done[I], 1) << "task " << I;
  // Every diamond's top precedes its middles, middles precede the bottom.
  std::vector<int> Position(Done.size());
  for (std::size_t P = 0; P < Order.size(); ++P)
    Position[static_cast<std::size_t>(Order[P])] = static_cast<int>(P);
  for (int D = 0; D < 4; ++D) {
    int Top = D * 10, Bottom = D * 10 + 9;
    for (int M = 1; M <= 8; ++M) {
      EXPECT_LT(Position[Top], Position[Top + M]);
      EXPECT_LT(Position[Top + M], Position[Bottom]);
    }
  }
}

TEST(ListScheduler, StealStormBalancesSkewedQueues) {
  // All tasks are independent, so the initial deal spreads them over four
  // queues — but the tasks dealt to queue 0 are slow, so the other
  // participants run dry and must steal to finish. With tracing armed the
  // scheduler publishes its steal count.
  obs::Tracer::global().enable();
  TaskGraph TG;
  std::atomic<int> Ran{0};
  for (int T = 0; T < 32; ++T)
    TG.addTask([&Ran, T](int) {
      if (T % 4 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ++Ran;
    });
  TaskGraph::ListOptions Opts;
  Opts.Threads = 4;
  TG.runList(Opts);
  obs::Trace Trace = drainTrace();

  EXPECT_EQ(Ran.load(), 32);
  if (ThreadPool::effectiveThreads(4) >= 2) {
    EXPECT_GT(Trace.counter(obs::Counter::SchedSteals), 0);
  }
}

TEST(ListScheduler, ExceptionDrainsInFlightAndPropagates) {
  TaskGraph TG;
  std::atomic<int> Ran{0};
  std::atomic<bool> SlowStarted{false};
  std::atomic<bool> SlowFinished{false};
  TG.addTask([&](int) {
    SlowStarted = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    SlowFinished = true;
    ++Ran;
  });
  // The thrower waits until the slow task is genuinely in flight; otherwise
  // the failure flag could keep the slow task from ever being admitted and
  // the drain guarantee would not apply to it. With one effective thread the
  // slow task (dealt first) deterministically completes before the thrower.
  TG.addTask([&](int) {
    if (ThreadPool::effectiveThreads(4) >= 2)
      while (!SlowStarted.load())
        std::this_thread::yield();
    throw std::runtime_error("boom");
  });
  for (int T = 0; T < 8; ++T)
    TG.addTask([&Ran](int) { ++Ran; });

  TaskGraph::ListOptions Opts;
  Opts.Threads = 4;
  EXPECT_THROW(TG.runList(Opts), std::runtime_error);
  // Whatever was in flight when the failure hit has drained by the time
  // runList rethrows — no task is still touching shared state.
  if (ThreadPool::effectiveThreads(4) >= 2) {
    EXPECT_TRUE(SlowFinished.load());
  }

  // The pool survives for the next region.
  TaskGraph Clean;
  std::atomic<int> CleanRan{0};
  for (int T = 0; T < 4; ++T)
    Clean.addTask([&CleanRan](int) { ++CleanRan; });
  TaskGraph::ListOptions CleanOpts;
  CleanOpts.Threads = 4;
  Clean.runList(CleanOpts);
  EXPECT_EQ(CleanRan.load(), 4);
}

TEST(ListScheduler, StatusErrorCrossesWorkerBoundaryIntact) {
  TaskGraph TG;
  TG.addTask([](int) {
    support::raise(support::ErrorCode::Internal, "typed failure");
  });
  TaskGraph::ListOptions Opts;
  Opts.Threads = 2;
  try {
    TG.runList(Opts);
    FAIL() << "expected StatusError";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::Internal);
    EXPECT_NE(E.status().toString().find("typed failure"), std::string::npos);
  }
}

TEST(ListScheduler, MatchesSerialBitIdenticalOnEveryPlanShape) {
  // Serial task order is the reference semantics; the list scheduler at
  // T in {2, 4} must reproduce it bit for bit on each of the three plan
  // shapes runPlan dispatches through its one task-graph helper.
  Harness S(mfd::buildChain2D(), 8);
  auto RunAt = [&](const ExecutionPlan &Plan, int Threads) {
    storage::ConcreteStorage Store = S.freshStore();
    RunOptions Opts;
    Opts.Threads = Threads;
    runPlan(Plan, S.Kernels, Store, Opts);
    return S.outputs(Store);
  };

  storage::ConcreteStorage Shape = S.freshStore();
  ExecutionPlan Untiled = ExecutionPlan::fromChain(S.Chain, Shape, S.Env);
  ASSERT_FALSE(Untiled.TileParallel);
  ExecutionPlan Tiled = S.tiledPlan(Shape);
  ASSERT_TRUE(Tiled.TileParallel);
  for (const ExecutionPlan *Plan : {&Untiled, &Tiled}) {
    const std::vector<double> Expected = RunAt(*Plan, 1);
    for (int Threads : {2, 4})
      expectBitIdentical(Expected, RunAt(*Plan, Threads));
  }

  // External-only: four layers of four tasks, each mixing two tasks of the
  // previous layer in an order-sensitive way, so a task that started
  // before its dependences finished would change the bits.
  auto RunExternal = [](int Threads) {
    constexpr int Width = 4, Layers = 4;
    std::vector<double> V(Width * Layers, 0.0);
    ExecutionPlan Plan;
    for (int L = 0; L < Layers; ++L)
      for (int J = 0; J < Width; ++J) {
        const int Id = L * Width + J;
        const int A = Id - Width, B = (L - 1) * Width + (J + 1) % Width;
        Plan.addExternalTask("mix", [&V, Id, A, B, L](int) {
          V[Id] = 0.1 * Id;
          if (L > 0)
            V[Id] += V[A] * 0.75 + V[B] / 3.0;
        });
        if (L > 0) {
          Plan.addDependence(A, Id);
          Plan.addDependence(B, Id);
        }
      }
    RunOptions Opts;
    Opts.Threads = Threads;
    runPlan(Plan, Opts);
    return V;
  };
  const std::vector<double> Expected = RunExternal(1);
  for (int Threads : {2, 4})
    expectBitIdentical(Expected, RunExternal(Threads));
}

TEST(ListScheduler, InjectedTaskFailurePropagatesStructuredError) {
  Harness S(mfd::buildChain2D(), 8);
  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Store, S.Env);

  FaultInjector::global().arm(
      FaultSpec{FaultSite::Task, FaultKind::Fail, 1});
  RunOptions Opts;
  Opts.Threads = 2;
  try {
    runPlan(Plan, S.Kernels, Store, Opts);
    FaultInjector::global().disarm();
    FAIL() << "expected injected task failure";
  } catch (const support::StatusError &E) {
    FaultInjector::global().disarm();
    EXPECT_EQ(E.status().code(), support::ErrorCode::FaultInjected)
        << E.status().toString();
  }
}

TEST(ListScheduler, BudgetDefersTasksAndCapsPeakLive) {
  // Eight independent tasks, each touching its own 1024-byte space; a
  // 2048-byte budget admits at most two at a time regardless of how many
  // workers are hungry.
  std::vector<FootprintTracker::SpaceInfo> Spaces(
      8, FootprintTracker::SpaceInfo{1024, false});
  std::vector<std::vector<unsigned>> Touch;
  for (unsigned T = 0; T < 8; ++T)
    Touch.push_back({T});
  FootprintTracker Tracker(Spaces, Touch);
  EXPECT_EQ(Tracker.maxSingleTaskBytes(), 1024);
  EXPECT_EQ(Tracker.serialHighWater(), 1024);

  obs::Tracer::global().enable();
  TaskGraph TG;
  std::atomic<int> Ran{0};
  for (int T = 0; T < 8; ++T)
    TG.addTask([&Ran](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++Ran;
    });
  TaskGraph::ListOptions Opts;
  Opts.Threads = 4;
  Opts.MemBudget = 2048;
  Opts.Memory = &Tracker;
  TG.runList(Opts);
  obs::Trace Trace = drainTrace();

  EXPECT_EQ(Ran.load(), 8);
  EXPECT_LE(Tracker.highWater(), 2048);
  EXPECT_GT(Tracker.highWater(), 0);
  EXPECT_EQ(Tracker.liveBytes(), 0);
  EXPECT_EQ(Trace.counter(obs::Counter::SchedPeakLive),
            Tracker.highWater());
}

TEST(ListScheduler, InfeasibleBudgetRefusedUpFrontWithE016) {
  std::vector<FootprintTracker::SpaceInfo> Spaces{{4096, false}};
  std::vector<std::vector<unsigned>> Touch{{0u}};
  FootprintTracker Tracker(Spaces, Touch);

  TaskGraph TG;
  std::atomic<int> Ran{0};
  TG.addTask([&Ran](int) { ++Ran; });
  TaskGraph::ListOptions Opts;
  Opts.Threads = 2;
  Opts.MemBudget = 1024;
  Opts.Memory = &Tracker;
  try {
    TG.runList(Opts);
    FAIL() << "expected E016";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::MemBudgetInfeasible);
  }
  // Refused before anything started: no task ran, nothing was admitted.
  EXPECT_EQ(Ran.load(), 0);
  EXPECT_EQ(Tracker.highWater(), 0);
}

TEST(ListScheduler, WedgeWithOnlyDeferredTasksRaisesE016) {
  // Space A (1000 bytes) is shared by tasks 0 and 2, so it stays live
  // after task 0 retires. Task 1 touches B (600 bytes) and gates task 2.
  // Budget 1200: every task fits from a cold start, but B can never be
  // activated while A is held — once the dummy chain drains, nothing is
  // ready, running, or admissible, and the scheduler must refuse with
  // E016 instead of hanging.
  std::vector<FootprintTracker::SpaceInfo> Spaces{{1000, false},
                                                  {600, false}};
  std::vector<std::vector<unsigned>> Touch{
      {0u}, {1u}, {0u}, {}, {}};
  FootprintTracker Tracker(Spaces, Touch);
  EXPECT_LE(Tracker.maxSingleTaskBytes(), 1200);

  TaskGraph TG;
  std::atomic<bool> GatedRan{false};
  int A1 = TG.addTask([](int) {});
  int B = TG.addTask([](int) {});
  int A2 = TG.addTask([&GatedRan](int) { GatedRan = true; });
  int D1 = TG.addTask([](int) {});
  int D2 = TG.addTask([](int) {});
  TG.addDependence(B, A2);
  // Height-3 chain under the first A toucher so it outranks B's chain.
  TG.addDependence(A1, D1);
  TG.addDependence(D1, D2);

  TaskGraph::ListOptions Opts;
  Opts.Threads = 1; // Deterministic pop order: A1, then B defers.
  Opts.MemBudget = 1200;
  Opts.Memory = &Tracker;
  try {
    TG.runList(Opts);
    FAIL() << "expected E016 wedge";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::MemBudgetInfeasible);
    EXPECT_NE(E.status().toString().find("wedged"), std::string::npos)
        << E.status().toString();
  }
  EXPECT_FALSE(GatedRan.load());
}

TEST(ListScheduler, BudgetRefusedOutsideTheListUntiledPath) {
  if (ThreadPool::effectiveThreads(2) < 2)
    GTEST_SKIP() << "serial runs waive the budget by design (L007 rung)";
  Harness S(mfd::buildChain2D(), 8);
  RunOptions Opts;
  Opts.Threads = 2;
  Opts.MemBudget = 1 << 20;
  auto ExpectE016 = [](const std::function<void()> &Run, const char *Path) {
    try {
      Run();
      ADD_FAILURE() << Path << ": expected E016";
    } catch (const support::StatusError &E) {
      EXPECT_EQ(E.status().code(), support::ErrorCode::MemBudgetInfeasible)
          << Path;
      EXPECT_NE(E.status().message().find("not enforceable"),
                std::string::npos)
          << Path << ": " << E.status().toString();
    }
  };

  // Tile-parallel runs privatize temporaries per worker and external-only
  // plans own no storage: neither has a footprint model, so a nonzero
  // budget is an error, not a silently unenforced knob.
  storage::ConcreteStorage Store = S.freshStore();
  ExecutionPlan Tiled = S.tiledPlan(Store);
  ASSERT_TRUE(Tiled.TileParallel);
  ExpectE016([&] { runPlan(Tiled, S.Kernels, Store, Opts); },
             "tile-parallel");

  std::atomic<int> Ran{0};
  ExecutionPlan External;
  for (int T = 0; T < 4; ++T)
    External.addExternalTask("noop", [&Ran](int) { ++Ran; });
  ExpectE016([&] { runPlan(External, Opts); }, "external-only");
  EXPECT_EQ(Ran.load(), 0) << "refused before any task ran";
}

TEST(ListScheduler, GenerousBudgetMatchesOracleAndRecordsPeak) {
  Harness S(mfd::buildChain2D(), 8);

  storage::ConcreteStorage Ref = S.freshStore();
  ExecutionPlan Plan = ExecutionPlan::fromChain(S.Chain, Ref, S.Env);
  RunOptions Serial;
  Serial.Threads = 1;
  runPlan(Plan, S.Kernels, Ref, Serial);
  std::vector<double> Expected = S.outputs(Ref);

  obs::Tracer::global().enable();
  storage::ConcreteStorage Store = S.freshStore();
  RunOptions Opts;
  Opts.Threads = 4;
  Opts.MemBudget = 1 << 30;
  runPlan(Plan, S.Kernels, Store, Opts);
  obs::Trace Trace = drainTrace();

  expectBitIdentical(Expected, S.outputs(Store));
  const std::int64_t Peak = Trace.counter(obs::Counter::SchedPeakLive);
  EXPECT_GE(Peak, 0);
  EXPECT_LE(Peak, 1 << 30);
}

TEST(TaskGraph, WavefrontsAndHeightsAreMemoized) {
  TaskGraph TG;
  int A = TG.addTask([](int) {});
  int B = TG.addTask([](int) {});
  TG.addDependence(A, B);

  const auto &L1 = TG.wavefronts();
  ASSERT_EQ(L1.size(), 2u);
  // Second query without mutation returns the cached object.
  EXPECT_EQ(&TG.wavefronts(), &L1);
  const auto &H1 = TG.heights();
  EXPECT_EQ(H1[static_cast<std::size_t>(A)], 2);
  EXPECT_EQ(H1[static_cast<std::size_t>(B)], 1);

  // Mutation invalidates: a new sink under B deepens the graph.
  int C = TG.addTask([](int) {});
  TG.addDependence(B, C);
  ASSERT_EQ(TG.wavefronts().size(), 3u);
  EXPECT_EQ(TG.heights()[static_cast<std::size_t>(A)], 3);
}
