//===- tests/exec/ThreadPoolTest.cpp --------------------------------------===//
//
// The scheduling substrate of the execution layer: the persistent thread
// pool behind rt::parallelFor (dynamic claiming, exception propagation,
// serial nesting, LCDFG_THREADS capping) and the TaskGraph's
// longest-path levels and cycle detection (its scheduler is covered in
// ListSchedulerTest.cpp).
//
//===----------------------------------------------------------------------===//

#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"

#include "runtime/Parallel.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// Saves and restores LCDFG_THREADS around a test.
struct ScopedThreadsEnv {
  std::string Saved;
  bool HadValue;
  explicit ScopedThreadsEnv(const char *Value) {
    const char *Old = std::getenv("LCDFG_THREADS");
    HadValue = Old != nullptr;
    if (HadValue)
      Saved = Old;
    if (Value)
      setenv("LCDFG_THREADS", Value, 1);
    else
      unsetenv("LCDFG_THREADS");
  }
  ~ScopedThreadsEnv() {
    if (HadValue)
      setenv("LCDFG_THREADS", Saved.c_str(), 1);
    else
      unsetenv("LCDFG_THREADS");
  }
};

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  const int Count = 200;
  std::vector<std::atomic<int>> Hits(Count);
  ThreadPool::global().parallelFor(Count, 4, [&](int I) { ++Hits[I]; });
  for (int I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParticipantIdsAreBounded) {
  // Workers may drain a small region before the caller claims an index,
  // so which ids appear is timing-dependent — but every id must lie
  // inside the requested budget, and every index must still run.
  const int Count = 64;
  std::mutex Mu;
  std::set<int> Seen;
  std::atomic<int> Ran{0};
  ThreadPool::global().parallelForWorker(Count, 3, [&](int, int Participant) {
    ++Ran;
    std::lock_guard<std::mutex> Lock(Mu);
    Seen.insert(Participant);
  });
  EXPECT_EQ(Ran.load(), Count);
  ASSERT_FALSE(Seen.empty());
  EXPECT_GE(*Seen.begin(), 0);
  EXPECT_LT(*Seen.rbegin(), 3);
}

TEST(ThreadPool, PropagatesFirstException) {
  EXPECT_THROW(ThreadPool::global().parallelFor(
                   50, 4,
                   [](int I) {
                     if (I == 17)
                       throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a throwing region and runs the next one normally.
  std::atomic<int> Sum{0};
  ThreadPool::global().parallelFor(10, 4, [&](int I) { Sum += I; });
  EXPECT_EQ(Sum.load(), 45);
}

TEST(ThreadPool, NestedRegionsRunSerialInline) {
  // A region launched from inside a worker must not deadlock waiting for
  // pool capacity; it degrades to a serial loop on the calling worker.
  std::atomic<int> Total{0};
  ThreadPool::global().parallelFor(4, 4, [&](int) {
    ThreadPool::global().parallelFor(8, 4, [&](int) { ++Total; });
  });
  EXPECT_EQ(Total.load(), 32);
}

TEST(ThreadPool, EffectiveThreadsHonorsEnvCap) {
  {
    ScopedThreadsEnv Env("2");
    EXPECT_EQ(ThreadPool::effectiveThreads(8), 2);
    EXPECT_EQ(ThreadPool::effectiveThreads(1), 1);
  }
  {
    ScopedThreadsEnv Env(nullptr);
    EXPECT_EQ(ThreadPool::effectiveThreads(8), 8);
    EXPECT_EQ(ThreadPool::effectiveThreads(0), 1) << "requests clamp to 1";
  }
}

TEST(RuntimeParallelFor, RoutesThroughPoolAndThrows) {
  std::vector<std::atomic<int>> Hits(33);
  rt::parallelFor(33, 4, [&](int I) { ++Hits[I]; });
  for (int I = 0; I < 33; ++I)
    EXPECT_EQ(Hits[I].load(), 1);
  EXPECT_THROW(rt::parallelFor(4, 2,
                               [](int) { throw std::logic_error("bad"); }),
               std::logic_error);
}

TEST(TaskGraph, WavefrontsFollowLongestPathDepth) {
  // Diamond: 0 -> {1, 2} -> 3.
  TaskGraph TG;
  for (int I = 0; I < 4; ++I)
    TG.addTask([](int) {});
  TG.addDependence(0, 1);
  TG.addDependence(0, 2);
  TG.addDependence(1, 3);
  TG.addDependence(2, 3);
  std::vector<std::vector<int>> Waves = TG.wavefronts();
  ASSERT_EQ(Waves.size(), 3u);
  EXPECT_EQ(Waves[0], (std::vector<int>{0}));
  EXPECT_EQ(Waves[1], (std::vector<int>{1, 2}));
  EXPECT_EQ(Waves[2], (std::vector<int>{3}));
}

TEST(ThreadPool, FirstExceptionWinsUnderContention) {
  // Many iterations throw; exactly one exception surfaces and the pool
  // drains cleanly at both throttled thread counts.
  for (const char *Threads : {"2", "4"}) {
    ScopedThreadsEnv Env(Threads);
    std::atomic<int> Ran{0};
    try {
      ThreadPool::global().parallelFor(100, 8, [&](int I) {
        if (I % 10 == 3)
          throw std::runtime_error("injected worker fault " +
                                   std::to_string(I));
        ++Ran;
      });
      FAIL() << "expected the injected fault to propagate";
    } catch (const std::runtime_error &E) {
      EXPECT_NE(std::string(E.what()).find("injected worker fault"),
                std::string::npos);
    }
    // Drained: a follow-up region on the same pool covers every index.
    std::atomic<int> Sum{0};
    ThreadPool::global().parallelFor(32, 8, [&](int I) { Sum += I; });
    EXPECT_EQ(Sum.load(), 32 * 31 / 2) << "LCDFG_THREADS=" << Threads;
  }
}

TEST(TaskGraph, CycleRaisesStructuredError) {
  TaskGraph TG;
  int A = TG.addTask([](int) {});
  int B = TG.addTask([](int) {});
  TG.addDependence(A, B);
  TG.addDependence(B, A);
  try {
    TG.wavefronts();
    FAIL() << "expected StatusError";
  } catch (const support::StatusError &E) {
    EXPECT_EQ(E.status().code(), support::ErrorCode::DependenceCycle);
    EXPECT_NE(E.status().message().find("cycle"), std::string::npos);
  }
}
