//===- obs/TraceCheck.h - Trace-vs-plan conformance validator ---*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic post-hoc race observer: replays a drained Trace against
/// the ExecutionPlan that produced it and asserts the schedule actually
/// respected its dependence structure. The static PlanVerifier proves a
/// plan *could* execute legally; TraceCheck proves one concrete execution
/// *did* — every dependence edge is backed by span timestamps (producer
/// span ends before consumer span starts, which by transitivity covers the
/// whole dependenceClosure()) and every task span sits on exactly one
/// worker with no same-worker overlap.
///
/// Checks run in stages and later stages are skipped once an earlier stage
/// errors, so a single mutation (a deleted span, a reversed pair) yields
/// exactly one diagnostic instead of a cascade:
///
///   T006  the trace is incomplete (ring buffers dropped spans)
///   T001  a plan task has no span / a span names an unknown task
///   T002  a plan task has more than one span (one trace = one run)
///   T003  a span ends before it starts
///   T005  two task spans on the same worker overlap in time
///   T004  a dependence edge is violated (consumer started before its
///         producer finished)
///
/// The input must be the drain of exactly one runPlan invocation of the
/// given plan; traces spanning several attempts (e.g. a recovery ladder)
/// legitimately repeat task spans and are rejected as T002.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_OBS_TRACECHECK_H
#define LCDFG_OBS_TRACECHECK_H

#include "obs/Trace.h"
#include "verify/Diagnostics.h"

namespace lcdfg {
namespace exec {
class ExecutionPlan;
} // namespace exec

namespace obs {

/// Stable trace-check identifiers, sibling namespace to the verifier's
/// Vnnn codes. Documented in docs/OBSERVABILITY.md.
inline constexpr const char *CheckMissingSpan = "T001-missing-span";
inline constexpr const char *CheckDuplicateSpan = "T002-duplicate-span";
inline constexpr const char *CheckReversedSpan = "T003-reversed-span";
inline constexpr const char *CheckDependenceOrder = "T004-dependence-order";
inline constexpr const char *CheckWorkerOverlap = "T005-worker-overlap";
inline constexpr const char *CheckDroppedSpans = "T006-dropped-spans";
/// Not emitted by checkTrace itself: lcdfg-lint's scheduler bit-compare
/// folds a parallel-vs-serial output divergence under this id.
inline constexpr const char *CheckSchedulerDivergence =
    "T007-scheduler-divergence";
/// Likewise lint-only: a --kernels=jit run whose persistent spaces are not
/// bit-identical to the interpreted batched reference.
inline constexpr const char *CheckJitDivergence = "T008-jit-divergence";

/// Validates \p T against \p Plan as described above. Non-task spans
/// (runs, rungs, markers) are ignored; only SpanKind::Task spans
/// participate.
verify::Diagnostics checkTrace(const exec::ExecutionPlan &Plan,
                               const Trace &T);

} // namespace obs
} // namespace lcdfg

#endif // LCDFG_OBS_TRACECHECK_H
