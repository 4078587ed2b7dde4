//===- obs/Trace.h - Span tracing and counter registry ----------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution observability layer. PlanStats reports end-of-run totals;
/// the tracer records *how* a schedule executed: one span per plan task
/// and per recovery rung, plus instant events for ladder
/// descents and fault-injector firings, and a registry of named counters
/// (statement instances, raw loads, batched segments vs scalar fallbacks,
/// modulo wraps, ghost exchanges, bytes moved).
///
/// Recording is designed for the hot path of exec::TaskGraph / ThreadPool
/// workers: each thread owns a private ring buffer (registered lazily
/// through a thread-local pointer), so a span record is two clock reads
/// and a bounded-buffer store — no locks, no allocation after the buffer
/// exists, and a single relaxed atomic load when tracing is disabled.
/// Buffers are drained after the run, on the caller's thread, into a
/// Trace: a time-sorted span list with per-worker counter totals that
/// exports as Chrome `trace_event` JSON (chrome://tracing, Perfetto) or as
/// a compact text summary including per-worker load-imbalance figures.
///
/// The drained trace doubles as a conformance artifact: obs::checkTrace
/// (TraceCheck.h) replays it against an ExecutionPlan's dependence closure
/// to assert the schedule actually respected every dependence edge.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_OBS_TRACE_H
#define LCDFG_OBS_TRACE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lcdfg {
namespace obs {

/// The counter registry. Counters are accumulated per worker thread (no
/// contention) and merged at drain; Trace keeps the per-worker shards so
/// tools can show load imbalance at T>1. Names are stable strings
/// (counterName) documented in docs/OBSERVABILITY.md; tests and CI match
/// on them.
enum class Counter : unsigned {
  PointsExecuted,  ///< exec.points: statement instances executed.
  RawReads,        ///< exec.reads.raw: operand loads performed.
  BytesMoved,      ///< exec.bytes.moved: 8 * (loads + stores).
  TasksExecuted,   ///< exec.tasks: plan tasks run (incl. external).
  ExternalTasks,   ///< exec.tasks.external: opaque callback tasks.
  BatchedInstrs,   ///< exec.instrs.batched: instruction executions that
                   ///  went through the row-batched path.
  ScalarInstrs,    ///< exec.instrs.scalar: instruction executions through
                   ///  the scalar interpreter (fallback or --batched=off).
  BatchedSegments, ///< exec.segments.batched: batched kernel invocations.
  ModuloWraps,     ///< exec.modulo.wraps: modulo wrap events (scalar
                   ///  index wraps + batched wrap-countdown expiries).
  GhostExchanges,  ///< rt.ghost.exchanges: exchangeGhosts calls.
  GhostCells,      ///< rt.ghost.cells: ghost cells filled.
  RecoveryRuns,    ///< recovery.attempts: degradation-ladder rung attempts.
  RecoveryDescents,///< recovery.descents: rung descents recorded.
  FaultsFired,     ///< fault.fired: injected faults that fired.
  SchedSteals,     ///< exec.sched.steals: list-scheduler tasks taken from
                   ///  another worker's deque.
  SchedStalls,     ///< exec.sched.stalls: list-scheduler waits with no
                   ///  admissible task anywhere (work-starved or all
                   ///  ready tasks deferred for memory).
  SchedDeferred,   ///< exec.sched.deferred: ready tasks deferred because
                   ///  admitting them would exceed RunOptions::MemBudget.
  SchedPeakLive,   ///< exec.sched.live.peak: high-water mark of live
                   ///  temporary bytes under the list scheduler (recorded
                   ///  once per run, not summed per worker).
  JitCompiled,     ///< exec.jit.compiled: segment kernels compiled by the
                   ///  host compiler (disk-cache misses).
  JitCacheHits,    ///< exec.jit.cache.hits: segment-kernel requests served
                   ///  from the in-memory or on-disk object cache.
  JitFallbacks,    ///< exec.jit.fallbacks: statements that requested JIT
                   ///  specialization but ran the interpreted batched body
                   ///  (no expression form, compiler unavailable, or a
                   ///  compile/load failure).
  ShardExchanges,  ///< rt.shard.exchanges: completed cross-process halo
                   ///  exchange phases (one per worker per step), as
                   ///  reported back to the coordinator.
  ShardBytes,      ///< rt.shard.bytes: halo payload bytes moved over the
                   ///  shard channels (send side).
  ShardRetries,    ///< rt.shard.retries: resend requests issued for late,
                   ///  truncated, or corrupt halo frames.
  ShardTimeouts,   ///< rt.shard.timeouts: exchange deadlines exceeded
                   ///  (terminal E019 events, before recovery).
  ShardPeerLost,   ///< rt.shard.peer_lost: peer processes lost
                   ///  mid-protocol (terminal E018 events).
  ServeRequests,   ///< serve.requests: request lines the daemon accepted
                   ///  for processing (commands and compile+run alike).
  ServeCacheHits,  ///< serve.cache.hits: compile+run requests served from
                   ///  a cached compiled plan.
  ServeCacheMisses,///< serve.cache.misses: compile+run requests that
                   ///  compiled fresh (including cache bypasses and
                   ///  compiles that failed).
  ServeEvictions,  ///< serve.cache.evictions: compiled plans evicted by
                   ///  the LRU policy to admit a new entry.
  ServeErrors,     ///< serve.errors: responses sent with "ok":false
                   ///  (protocol violations, compile errors, exhausted
                   ///  ladders, admission rejections).
  NumCounters
};

inline constexpr std::size_t NumCountersV =
    static_cast<std::size_t>(Counter::NumCounters);

/// Stable printable name of \p C (e.g. "exec.points").
std::string_view counterName(Counter C);

/// What a span covers. Task spans are the substrate of TraceCheck; the
/// rest exist for the human reading the Chrome timeline.
enum class SpanKind : unsigned char {
  Task,      ///< One plan task execution (Task/Instr set).
  Rung,      ///< One degradation-ladder rung attempt (A0 = attempt).
  Run,       ///< One whole runPlan invocation.
  Marker,    ///< Instant event (T1 == T0): descent, fault firing.
  Jit,       ///< One JIT host-compiler invocation (src/jit).
  Shard,     ///< One sharded timestep on the coordinator (A0 = step,
             ///  A1 = shard count).
  Exchange   ///< One worker's halo exchange phase, re-timed on the
             ///  coordinator clock from the worker's reported duration
             ///  (A0 = shard rank, A1 = step).
};

/// Printable name of \p K ("task", "rung", ...).
std::string_view spanKindName(SpanKind K);

/// One recorded span. Timestamps are nanoseconds since the tracer's
/// enable() epoch; Worker is the recording thread's dense buffer id,
/// assigned at drain time.
struct TraceSpan {
  std::int64_t T0 = 0;
  std::int64_t T1 = 0;
  std::int32_t Worker = -1;
  std::int32_t Label = -1; ///< Intern id into Trace::Labels, or -1.
  std::int32_t Task = -1;  ///< Plan task index, or -1.
  std::int32_t Instr = -1; ///< Plan instruction index, or -1.
  std::int32_t A0 = -1;    ///< Kind-specific argument (see SpanKind).
  std::int32_t A1 = -1;
  SpanKind Kind = SpanKind::Task;
};

/// A drained trace: every surviving span (time-sorted), the label intern
/// table, and the per-worker counter shards.
struct Trace {
  std::vector<TraceSpan> Spans;
  std::vector<std::string> Labels;
  /// One counter array per worker buffer (index = TraceSpan::Worker).
  std::vector<std::array<std::int64_t, NumCountersV>> WorkerCounters;
  /// Spans overwritten by ring wrap-around before the drain. A nonzero
  /// count means the span list is incomplete (TraceCheck refuses it).
  std::int64_t Dropped = 0;

  /// Merged total of \p C over all workers.
  std::int64_t counter(Counter C) const;
  /// Label text for intern id \p Id ("" for -1 / out of range).
  std::string_view label(std::int32_t Id) const;

  /// Compact human-readable rendering: span/drop totals, every non-zero
  /// counter, and a per-worker busy-time table with the max/min imbalance
  /// ratio (the --metrics output).
  std::string summary() const;

  /// Chrome trace_event JSON ("X" duration events on one tid per worker,
  /// "i" instants, "C" counter totals, thread-name metadata). Loadable in
  /// chrome://tracing and Perfetto.
  std::string toChromeJson() const;
};

/// The process-wide tracer. Disabled by default: every record call is a
/// single relaxed atomic load until enable() arms it. The LCDFG_TRACE
/// environment variable arms it at first use and writes the Chrome JSON
/// of everything recorded to the named file at process exit, so any
/// binary in the repo (benches included) is traceable without code
/// changes; LCDFG_TRACE_CAP overrides the per-worker ring capacity.
///
/// Contract: enable(), disable(), and drain() must not race with recording
/// threads — call them between parallel regions (the pool parks its
/// workers between runs, so "after runPlan returned" is always safe).
class Tracer {
public:
  static constexpr std::size_t DefaultCapacity = std::size_t{1} << 15;

  /// The global instance (arms itself from LCDFG_TRACE when set).
  static Tracer &global();

  bool enabled() const;

  /// Starts a fresh trace: resets the epoch, clears buffers and interned
  /// labels, and sets the per-worker ring capacity (spans per thread).
  void enable(std::size_t CapacityPerWorker = DefaultCapacity);

  /// Stops recording (buffers are kept until the next drain/enable).
  void disable();

  /// Collects every worker buffer into a Trace (spans sorted by start
  /// time), then clears the buffers and intern table so a subsequent run
  /// starts clean. The tracer stays enabled.
  Trace drain();

  /// Interns \p S and returns its id (stable until the next drain or
  /// enable). Takes a lock: intern at setup time, not per record.
  std::int32_t intern(std::string_view S);

  /// Nanoseconds since the enable() epoch.
  std::int64_t nowNs() const;

  /// Records \p S into the calling thread's ring buffer (Worker field is
  /// assigned at drain). No-op when disabled.
  void record(const TraceSpan &S);

  /// Records an instant event at now().
  void instant(SpanKind Kind, std::int32_t Label, std::int32_t Task = -1,
               std::int32_t Instr = -1, std::int32_t A0 = -1,
               std::int32_t A1 = -1);

  /// Adds \p V to counter \p C in the calling thread's shard. No-op when
  /// disabled.
  void add(Counter C, std::int64_t V);

  Tracer();
  ~Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

private:
  struct Impl;
  Impl *PImpl;
};

} // namespace obs
} // namespace lcdfg

#endif // LCDFG_OBS_TRACE_H
