//===- exec/RowPlan.h - Row-batched instruction execution -------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The row-batching compilation stage of the execution layer. A RowPlan
/// pre-compiles one NestInstr so the runner can execute whole innermost
/// rows through the batched kernel ABI (codegen::BatchedKernel) instead of
/// interpreting one statement instance at a time:
///
///  * the outer loop levels are walked with an odometer whose carries
///    adjust each stream's row base by a precomputed delta — no per-point
///    dot products;
///  * statement guards are resolved per row: outer-level guards admit or
///    reject the whole row, innermost-level guards clamp the statement to
///    a sub-range once;
///  * rows are split into segments at every modulo-wrap boundary of any
///    participating stream, so within a segment every access is plain
///    pointer + stride arithmetic and the kernel body auto-vectorizes.
///
/// Within a segment the statement records run one after another over the
/// whole segment, which reorders (x1, later-stmt) against (x2, earlier-
/// stmt) for x1 < x2 relative to the scalar point-interleaved oracle.
/// analyze() proves this reordering unobservable (see the conflict rules
/// in RowPlan.cpp), capping the segment length below the smallest
/// conflicting pair's collision distance when one exists — fused schedules
/// over storage-reduced rolling buffers batch in short segments instead of
/// losing batching outright. When no safe cap exists the plan is refused
/// and the runner falls back to the scalar path, which stays the
/// semantics of record.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_ROWPLAN_H
#define LCDFG_EXEC_ROWPLAN_H

#include "codegen/CPrinter.h"
#include "codegen/Interpreter.h"
#include "exec/ExecutionPlan.h"

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lcdfg {
namespace jit {
class Engine;
} // namespace jit
namespace exec {

/// One pre-resolved access path of a row-batched statement. The pre-wrap
/// linear index at inner position x of the row at outer iteration O is
///   Base + sum_l O[l] * OuterStrides[l] + x * InnerStride,
/// wrapped into [0, ModSize) when Modulo is set. The executor never
/// re-evaluates the sum: it keeps a running pre-wrap row base per stream
/// and applies CarryDelta[l] when the odometer carries into outer level l.
struct RowStream {
  unsigned Space = 0;
  bool Modulo = false;
  std::int64_t ModSize = 1;
  std::int64_t Base = 0; ///< Pre-wrap base at outer lows, inner x = 0.
  std::int64_t InnerStride = 0;
  std::vector<std::int64_t> OuterStrides; ///< One per outer level.
  std::vector<std::int64_t> CarryDelta;   ///< One per outer level.
};

/// One statement record compiled for row execution.
struct RowStmt {
  codegen::BatchedKernel Body = nullptr;
  /// Guards on outer levels: the row runs this statement only when every
  /// outer iterator lies inside its bound.
  std::vector<GuardBound> RowGuards;
  /// Innermost range after folding innermost-level guards into the loop
  /// bounds. Empty (Lo > Hi) statements never run.
  std::int64_t InnerLo = 0;
  std::int64_t InnerHi = -1;
  RowStream Write;
  std::vector<RowStream> Reads;
};

/// Why an instruction was kept on the scalar path. Exported (through
/// RowAnalysis) for the static verifier, which distinguishes structural
/// refusals from interleavings the compiler merely could not prove safe.
enum class RowRefusal {
  None,            ///< Compiled; RowAnalysis::Plan is engaged.
  External,        ///< Opaque callback task: nothing to batch.
  NoLoops,         ///< Zero loop levels: no innermost row exists.
  NoStmts,         ///< No statement records.
  NoBatchedKernel, ///< A statement kernel has no batched body.
  UnsafeInterleave ///< No statement-pair cap > 1 was provable.
};

/// Why JIT specialization was (or was not) applied — orthogonal to
/// RowRefusal: an instruction can batch fine yet stay on the interpreted
/// bodies, and `lcdfg-opt --report` prints the two dimensions separately
/// so "JIT-ineligible" no longer masquerades as "batched-ineligible".
enum class JitRefusal {
  NotRequested,      ///< analyze() ran without a JIT engine.
  Specialized,       ///< The plan runs a fused row kernel (RowPlan::Row).
  NoKernelExpr,      ///< A kernel carries no expression form (opaque).
  TooManyStmts,      ///< Over 64 statements: past the admission bitmask.
  NoInnerSpan,       ///< Every statement's inner span is empty: no row
                     ///  ever runs, so there is nothing to specialize.
  EngineUnavailable, ///< No working host compiler / cache (E017 probe).
  CompileFailed,     ///< The host compiler rejected the emitted walker.
  /// The static translation validator (verify::KernelVerifier) could not
  /// prove the emission faithful to the plan; the kernel was never handed
  /// to the engine and the instruction keeps its interpreted bodies.
  ValidationRejected
};

/// Stable printable names for the two refusal dimensions.
std::string_view rowRefusalName(RowRefusal R);
std::string_view jitRefusalName(JitRefusal J);

struct RowAnalysis;

/// Optional execution counters filled by RowPlan::run for the
/// observability layer: how many batched kernel segments were invoked and
/// how many modulo wrap-countdown expiries split them. (The scalar
/// interpreter's wrap counter counts wrapped accesses; this one counts
/// wrap boundary crossings — docs/OBSERVABILITY.md spells out the
/// difference.)
struct RowRunCounters {
  std::int64_t Segments = 0;
  std::int64_t Wraps = 0;
};

/// A compiled row view of one NestInstr. Immutable after analyze(): the
/// executor keeps all mutable cursor state on its own stack, so one
/// RowPlan may run concurrently on many workers (tile-parallel plans
/// share the per-nest compilation across tiles' workers).
class RowPlan {
public:
  /// Outer loop levels, outermost first (all levels but the innermost).
  std::vector<LoopLevel> Outer;
  std::vector<RowStmt> Stmts;
  /// Upper bound on segment length: the smallest collision distance over
  /// all conflicting statement pairs (int64 max when unconstrained).
  std::int64_t MaxSegment = std::numeric_limits<std::int64_t>::max();
  /// Fused whole-row JIT kernel, or null. When set, run() dispatches one
  /// compiled call per row (admission mask, row bounds, pre-wrap base
  /// arena) instead of walking segments through the interpreted batched
  /// bodies. The compiled function is this plan's segment walker with all
  /// shape constants (including MaxSegment) baked in — same chunking and
  /// statement interleave, so results are bit-identical by construction.
  codegen::RowKernel Row = nullptr;

  /// Compiles \p Instr for row-batched execution. RowAnalysis::Plan stays
  /// empty, with the refusal reason, when the instruction must stay on the
  /// scalar path: external tasks, zero loop levels, a statement kernel
  /// without a batched body, or a statement interleaving whose reordering
  /// cannot be proven safe. \p Jit, when non-null, compiles the whole
  /// instruction into one fused row kernel where possible; any JIT failure
  /// keeps the interpreted bodies (never a hard error) and is reported in
  /// the Jit fields.
  static RowAnalysis analyze(const NestInstr &Instr,
                             const codegen::KernelRegistry &Kernels,
                             jit::Engine *Jit = nullptr);

  /// Executes the compiled rows against the space table \p Spaces
  /// (index = space id, value = buffer base pointer). Accumulates the
  /// statement-instance and operand-load counts the runner credits to the
  /// instruction's node; \p Counters, when non-null, additionally receives
  /// the batched-segment and modulo-wrap counts.
  void run(double *const *Spaces, std::int64_t &Points,
           std::int64_t &RawReads, RowRunCounters *Counters = nullptr) const;
};

/// The fused row-walker descriptor analyze() would hand jit::Engine for
/// \p Plan, or std::nullopt when the instruction has no fused-row form: a
/// kernel without an expression body, more than 64 statements, a statement
/// table that does not match \p Instr, or no statement with a non-empty
/// inner span. Purely shape-derived — no engine is consulted, so the
/// static validator can call it with no host compiler present.
std::optional<codegen::RowKernelDesc>
rowKernelDesc(const RowPlan &Plan, const NestInstr &Instr,
              const codegen::KernelRegistry &Kernels);

/// Result of the row-batching compilation attempt: the plan when it
/// succeeded, and the first refusal reason when it did not. The Jit
/// fields report the specialization dimension (see JitRefusal), which is
/// all-or-nothing: either the plan carries a fused row kernel or every
/// statement keeps its interpreted body.
struct RowAnalysis {
  std::optional<RowPlan> Plan;
  RowRefusal Refusal = RowRefusal::None;
  JitRefusal Jit = JitRefusal::NotRequested;
  /// Detail of the JIT refusal ("" when none).
  std::string JitDetail;
  /// Statements that run compiled code: the statement count exactly when
  /// Plan->Row is set, else 0.
  int JitStmts = 0;
};

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_ROWPLAN_H
