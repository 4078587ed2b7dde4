//===- exec/TaskGraph.cpp - Dependence-aware task scheduling --------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "exec/TaskGraph.h"

#include "exec/ThreadPool.h"
#include "obs/Trace.h"
#include "storage/LivenessAllocator.h"
#include "support/Errors.h"
#include "support/Status.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <sstream>
#include <utility>

namespace lcdfg {
namespace exec {

int TaskGraph::addTask(std::function<void(int)> Work) {
  CacheValid = false;
  Tasks.push_back(Task{std::move(Work), {}, 0});
  return static_cast<int>(Tasks.size()) - 1;
}

void TaskGraph::addDependence(int Before, int After) {
  CacheValid = false;
  Tasks.at(Before).Succs.push_back(After);
  ++Tasks.at(After).NumPreds;
}

void TaskGraph::computeLevels() const {
  const int N = size();
  std::vector<int> Pending(N), Level(N, 0);
  std::vector<int> Ready;
  for (int I = 0; I < N; ++I) {
    Pending[I] = Tasks[I].NumPreds;
    if (Pending[I] == 0)
      Ready.push_back(I);
  }
  std::vector<std::vector<int>> Levels;
  int Done = 0;
  while (!Ready.empty()) {
    Levels.push_back(Ready);
    std::vector<int> Next;
    for (int T : Ready) {
      ++Done;
      for (int S : Tasks[T].Succs) {
        Level[S] = std::max(Level[S], Level[T] + 1);
        if (--Pending[S] == 0)
          Next.push_back(S);
      }
    }
    Ready = std::move(Next);
  }
  if (Done != N)
    support::raise(support::ErrorCode::DependenceCycle,
                   "TaskGraph: dependence cycle detected");
  // Downward critical paths: successors live in deeper levels, so one
  // reverse sweep over the level order sees every successor first.
  std::vector<int> Heights(N, 1);
  for (auto It = Levels.rbegin(); It != Levels.rend(); ++It)
    for (int T : *It)
      for (int S : Tasks[T].Succs)
        Heights[T] = std::max(Heights[T], Heights[S] + 1);
  LevelsCache = std::move(Levels);
  HeightsCache = std::move(Heights);
  CacheValid = true;
}

const std::vector<std::vector<int>> &TaskGraph::wavefronts() const {
  if (!CacheValid)
    computeLevels();
  return LevelsCache;
}

const std::vector<int> &TaskGraph::heights() const {
  if (!CacheValid)
    computeLevels();
  return HeightsCache;
}

namespace {

/// Shared list-scheduler state. One mutex guards everything: tasks are
/// coarse loop nests and the pool runs at most a handful of workers, so a
/// fine-grained lock-free deque would buy nothing over clarity here — the
/// lock is released around every Work() call, which is where the time is.
struct ListState {
  std::mutex Mu;
  std::condition_variable Cv;
  /// Per-participant ready deque, kept sorted by rank (front = highest
  /// priority). The owner pops from the front; thieves take from the back.
  std::vector<std::deque<int>> Queues;
  std::vector<int> Pending;
  /// Ready tasks set aside because admitting them would exceed the
  /// budget; revisited whenever a retiring task frees memory.
  std::vector<int> Deferred;
  int Remaining = 0;
  int InFlight = 0;
  bool Failed = false;
  std::exception_ptr Error;
  std::int64_t Steals = 0, Stalls = 0, DeferredEvents = 0;
};

} // namespace

void TaskGraph::runList(const ListOptions &Opts) {
  const int N = size();
  wavefronts(); // raises E010 on a cycle before anything runs
  const std::vector<int> &Height = heights();
  storage::FootprintTracker *Mem = Opts.Memory;
  const std::int64_t Budget = Opts.MemBudget;
  if (Budget > 0 && !Mem)
    support::raise(support::ErrorCode::MemBudgetInfeasible,
                   "list scheduler: memory budget given without a footprint "
                   "model to charge it against");
  if (Budget > 0 && Mem->maxSingleTaskBytes() > Budget) {
    std::ostringstream OS;
    OS << "list scheduler: budget " << Budget
       << " bytes cannot admit the largest task ("
       << Mem->maxSingleTaskBytes() << " bytes live at once)";
    support::raise(support::ErrorCode::MemBudgetInfeasible, OS.str());
  }
  if (N == 0)
    return;
  const int Threads = std::max(1, std::min(Opts.Threads, N));

  // Priority rank: critical-path length first, then the bytes scheduling
  // the task would tend to free (MRIS-style), then task id for
  // determinism. Rank[T] is T's position in the best-first order; deques
  // hold ranks-sorted task ids so comparisons are a single int.
  std::vector<std::int64_t> Hint(N, 0);
  if (Mem)
    for (int T = 0; T < N; ++T)
      Hint[T] = Mem->releaseHintBytes(T);
  std::vector<int> Order(N);
  for (int T = 0; T < N; ++T)
    Order[T] = T;
  std::stable_sort(Order.begin(), Order.end(), [&](int A, int B) {
    if (Height[A] != Height[B])
      return Height[A] > Height[B];
    if (Hint[A] != Hint[B])
      return Hint[A] > Hint[B];
    return A < B;
  });
  std::vector<int> Rank(N);
  for (int I = 0; I < N; ++I)
    Rank[Order[I]] = I;

  ListState S;
  S.Queues.resize(static_cast<std::size_t>(Threads));
  S.Pending.resize(N);
  S.Remaining = N;
  for (int T = 0; T < N; ++T)
    S.Pending[T] = Tasks[T].NumPreds;
  // Deal the initial ready set best-first round-robin so every worker
  // starts with a high-priority task at its front.
  {
    int Q = 0;
    for (int I = 0; I < N; ++I)
      if (S.Pending[Order[I]] == 0)
        S.Queues[static_cast<std::size_t>(Q++ % Threads)].push_back(Order[I]);
  }

  auto Admissible = [&](int T) {
    return Budget <= 0 || Mem->liveBytes() + Mem->activationBytes(T) <= Budget;
  };
  auto PushSorted = [&](std::deque<int> &Q, int T) {
    Q.insert(std::lower_bound(Q.begin(), Q.end(), T,
                              [&](int A, int B) { return Rank[A] < Rank[B]; }),
             T);
  };
  // Scans \p Q (front-to-back when \p FromFront, the reverse for thieves)
  // for the first task the budget admits; tasks skipped over are parked on
  // the deferred list until a retire frees memory.
  auto PopAdmissible = [&](std::deque<int> &Q, bool FromFront) {
    while (!Q.empty()) {
      const int T = FromFront ? Q.front() : Q.back();
      if (FromFront)
        Q.pop_front();
      else
        Q.pop_back();
      if (Admissible(T))
        return T;
      S.Deferred.push_back(T);
      ++S.DeferredEvents;
    }
    return -1;
  };

  obs::Tracer &Tr = obs::Tracer::global();

  auto Loop = [&](int, int P) {
    std::unique_lock<std::mutex> Lk(S.Mu);
    while (!S.Failed && S.Remaining > 0) {
      int T = PopAdmissible(S.Queues[static_cast<std::size_t>(P)], true);
      if (T < 0) {
        for (int V = 1; V < Threads && T < 0; ++V)
          T = PopAdmissible(
              S.Queues[static_cast<std::size_t>((P + V) % Threads)], false);
        if (T >= 0)
          ++S.Steals;
      }
      if (T < 0) {
        if (S.InFlight == 0) {
          // Nothing running, nothing admissible. With deferred tasks this
          // is a wedged budget (no retire will ever free memory); without
          // them it would be a cycle, which wavefronts() already ruled
          // out — so any task still pending is an internal error.
          support::Status Wedge;
          if (!S.Deferred.empty()) {
            std::ostringstream OS;
            OS << "list scheduler: budget " << Budget
               << " bytes wedged with " << Mem->liveBytes()
               << " bytes live and " << S.Deferred.size()
               << " ready task(s) over budget";
            Wedge = support::Status::error(
                support::ErrorCode::MemBudgetInfeasible, OS.str());
          } else {
            Wedge = support::Status::error(
                support::ErrorCode::Internal,
                "list scheduler: tasks pending with nothing ready, running, "
                "or deferred");
          }
          S.Failed = true;
          S.Error = std::make_exception_ptr(support::StatusError(Wedge));
          S.Cv.notify_all();
          break;
        }
        ++S.Stalls;
        S.Cv.wait(Lk);
        continue;
      }
      if (Mem)
        Mem->admit(T);
      ++S.InFlight;
      Lk.unlock();
      try {
        Tasks[T].Work(P);
      } catch (...) {
        Lk.lock();
        --S.InFlight;
        if (!S.Failed) {
          S.Failed = true;
          S.Error = std::current_exception();
        }
        S.Cv.notify_all();
        break;
      }
      Lk.lock();
      --S.InFlight;
      --S.Remaining;
      if (Mem) {
        Mem->retire(T);
        // Memory came back: re-queue every deferred task the budget now
        // admits (onto this worker — it just freed the bytes).
        for (std::size_t I = 0; I < S.Deferred.size();) {
          if (Admissible(S.Deferred[I])) {
            PushSorted(S.Queues[static_cast<std::size_t>(P)], S.Deferred[I]);
            S.Deferred[I] = S.Deferred.back();
            S.Deferred.pop_back();
          } else {
            ++I;
          }
        }
      }
      for (int Succ : Tasks[T].Succs)
        if (--S.Pending[Succ] == 0)
          PushSorted(S.Queues[static_cast<std::size_t>(P)], Succ);
      S.Cv.notify_all();
    }
  };

  ThreadPool::global().parallelForWorker(Threads, Threads, Loop);

  if (Tr.enabled()) {
    Tr.add(obs::Counter::SchedSteals, S.Steals);
    Tr.add(obs::Counter::SchedStalls, S.Stalls);
    Tr.add(obs::Counter::SchedDeferred, S.DeferredEvents);
    if (Mem)
      Tr.add(obs::Counter::SchedPeakLive, Mem->highWater());
  }
  if (S.Error)
    std::rethrow_exception(S.Error);
}

} // namespace exec
} // namespace lcdfg
