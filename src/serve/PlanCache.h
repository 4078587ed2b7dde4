//===- serve/PlanCache.h - Keyed compiled-plan cache ------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The amortization core of the serving daemon. The paper's pipeline
/// compiles a loop chain once and executes it many times; lcdfg-serve
/// turns that into a service by keeping the expensive front half — parse,
/// graph build, transform script, storage planning, AST generation, plan
/// lowering, fallback lowering, static verification — behind an LRU cache
/// keyed by exactly what compile reads:
///
///   (chain hash, script hash, size, widen, harden)
///
/// The hardening bit is a key component because it swaps the synthetic
/// kernel *bodies* (pure vs accumulating stand-ins), which are baked into
/// the registry at compile time. Run-only knobs (threads, batched, kernel
/// mode, memory budget) are deliberately not in the key: they select *how*
/// a cached plan runs, not what was compiled, so one compiled plan serves
/// every thread count. JIT kernels have their own two-level cache in
/// jit::Engine keyed by expression and segment shape.
///
/// A CompiledPlan is immutable after construction and shared by every
/// request that hits it (shared_ptr, so an entry evicted mid-flight stays
/// alive until its last request completes). Everything a concurrent run
/// reads is pre-warmed at compile time — including both plans' dependence
/// closures, whose lazy memoization would otherwise race.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SERVE_PLANCACHE_H
#define LCDFG_SERVE_PLANCACHE_H

#include "codegen/Ast.h"
#include "codegen/Interpreter.h"
#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "graph/CostModel.h"
#include "graph/Graph.h"
#include "ir/LoopChain.h"
#include "storage/StorageMap.h"
#include "support/Status.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace lcdfg {
namespace serve {

/// One compile+run request, decoded from the wire. Key fields (see file
/// header) select the cache entry; the rest are per-run options.
struct RequestSpec {
  std::string Chain;  ///< Pragma text (the chain source).
  std::string Script; ///< Transform script text ("" = untransformed).
  std::int64_t Size = 8;
  unsigned Widen = 1;
  bool Harden = false;

  // Run-only knobs (not part of the cache key).
  int Threads = 1;
  bool Batched = true;
  exec::KernelMode Kernels = exec::KernelMode::Interp;
  std::int64_t MemBudget = 0;
  bool Bypass = false;   ///< Compile fresh, never consult or fill the cache.
  bool Checksum = false; ///< FNV the persistent outputs into the response.
};

/// Everything the daemon needs to run one cached configuration. The
/// members keep each other alive: the plan addresses spaces laid out by
/// SPlan, streams resolved against any ConcreteStorage(SPlan, env), and
/// kernel ids registered in Kernels; Ast and the graphs are retained so
/// nothing dangles.
struct CompiledPlan {
  ir::LoopChain Chain; ///< With synthetic kernel ids assigned.
  codegen::KernelRegistry Kernels;
  /// Transformed (script applied). Optional only because Graph binds to
  /// the chain at construction; engaged for every compiled entry.
  std::optional<graph::Graph> G;
  storage::StoragePlan SPlan;
  codegen::AstPtr Ast;
  exec::ExecutionPlan Plan;

  /// Untransformed reference for the fallback rung.
  std::optional<graph::Graph> RefG;
  storage::StoragePlan FbSPlan;
  exec::ExecutionPlan FbPlan;

  exec::ParamEnv Env;
  graph::CostReport Cost; ///< S_R / S_c of the transformed graph.

  std::int64_t StoreBytes = 0;    ///< One ConcreteStorage(SPlan, Env).
  std::int64_t FallbackBytes = 0; ///< One ConcreteStorage(FbSPlan, Env).
  /// What admission charges a request: primary + fallback stores twice
  /// over (the recovery ladder snapshots both before running).
  std::int64_t AdmitBytes = 0;
  /// Serial high-water of live temporaries (FootprintTracker) — the
  /// floor any admission policy could reach for this plan.
  std::int64_t SerialHighWater = 0;
  /// 8 * S_R(Size): the cost model's read traffic in bytes; the server's
  /// heavy-lane classifier keys on it.
  std::int64_t TrafficBytes = 0;

  /// Strict static verification runs once here, not per request; an
  /// unclean entry is still cached (recompiling would not fix it) and
  /// every request for it is answered with the E011 below.
  bool VerifyClean = true;
  std::string VerifyDetail;

  double CompileSeconds = 0.0;

  /// Deterministically seeds the persistent inputs of \p Store — the same
  /// pattern for every request, which is what makes warm-vs-cold
  /// bit-identity checkable.
  void seedStore(storage::ConcreteStorage &Store) const;
};

using CompiledPlanPtr = std::shared_ptr<const CompiledPlan>;

/// Hit/miss/eviction counters; Hits + Misses equals the requests that
/// consulted the cache (bypasses count as misses).
struct CacheStats {
  std::int64_t Hits = 0;
  std::int64_t Misses = 0;
  std::int64_t Evictions = 0;
  std::int64_t Entries = 0;
};

/// Thread-safe LRU over compiled plans. Compiles happen outside the lock,
/// so a slow compile never stalls hits on other keys; two racing misses
/// for the same key both compile and the later insert is dropped in
/// favor of the earlier (both count as misses).
class PlanCache {
public:
  explicit PlanCache(std::size_t Capacity = 64);

  /// Returns the cached entry for \p Spec, compiling on a miss. Compile
  /// failures (E001 parse, E005 script, E007 storage, E008 lowering) are
  /// returned and never cached — a poisoned request must not occupy a
  /// slot, and a retry after a fix must recompile. \p Hit, when non-null,
  /// reports whether this was a cache hit.
  support::Expected<CompiledPlanPtr> get(const RequestSpec &Spec,
                                         bool *Hit = nullptr);

  CacheStats stats() const;
  std::size_t capacity() const { return Capacity; }
  void clear();

  /// The front half of the pipeline, cache-free: parse, synthetic
  /// kernels, graph, script, storage plan (widened), AST, plan, fallback
  /// plan, cost model, footprint, one strict verification.
  static support::Expected<CompiledPlanPtr> compile(const RequestSpec &Spec);

  /// FNV-1a-64 over \p Text (the protocol's chain hash).
  static std::uint64_t hashText(std::string_view Text);

private:
  struct Key {
    std::uint64_t ChainHash = 0;
    std::uint64_t ScriptHash = 0;
    std::int64_t Size = 0;
    unsigned Widen = 1;
    bool Harden = false;

    bool operator<(const Key &O) const;
  };
  static Key keyOf(const RequestSpec &Spec);

  struct Entry {
    CompiledPlanPtr Plan;
    std::list<Key>::iterator Order; ///< Position in the LRU list.
  };

  mutable std::mutex Mu;
  std::size_t Capacity;
  std::list<Key> Order; ///< Front = most recently used.
  std::map<Key, Entry> Entries;
  CacheStats Stats;
};

} // namespace serve
} // namespace lcdfg

#endif // LCDFG_SERVE_PLANCACHE_H
