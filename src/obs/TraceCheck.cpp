//===- obs/TraceCheck.cpp -------------------------------------------------===//

#include "obs/TraceCheck.h"

#include "exec/ExecutionPlan.h"

#include <algorithm>

using namespace lcdfg;
using namespace lcdfg::obs;
using verify::Diagnostic;
using verify::Diagnostics;
using verify::Severity;

namespace {

Diagnostic makeDiag(const char *CheckId, std::string Message, int Task = -1,
                    int OtherTask = -1) {
  Diagnostic D;
  D.Sev = Severity::Error;
  D.CheckId = CheckId;
  D.Message = std::move(Message);
  D.Task = Task;
  D.OtherTask = OtherTask;
  return D;
}

} // namespace

Diagnostics obs::checkTrace(const exec::ExecutionPlan &Plan, const Trace &T) {
  Diagnostics Diags;
  const std::size_t NumTasks = Plan.Tasks.size();

  // Stage 0: a wrapped ring buffer means spans were lost; every later
  // stage would report phantom "missing" tasks, so stop here.
  if (T.Dropped) {
    Diags.add(makeDiag(CheckDroppedSpans,
                       std::to_string(T.Dropped) +
                           " spans were dropped by ring-buffer wrap-around; "
                           "the trace is incomplete (raise the tracer "
                           "capacity)"));
    return Diags;
  }

  // Stage 1: structural — exactly one well-formed span per plan task.
  // Spans is time-sorted, so the first span seen for a task is kept as its
  // canonical execution for the later stages.
  std::vector<int> SpanOf(NumTasks, -1);
  for (std::size_t S = 0; S < T.Spans.size(); ++S) {
    const TraceSpan &Sp = T.Spans[S];
    if (Sp.Kind != SpanKind::Task)
      continue;
    if (Sp.Task < 0 || static_cast<std::size_t>(Sp.Task) >= NumTasks) {
      Diags.add(makeDiag(CheckMissingSpan,
                         "task span references task " +
                             std::to_string(Sp.Task) +
                             " outside the plan (plan has " +
                             std::to_string(NumTasks) + " tasks)",
                         Sp.Task));
      continue;
    }
    if (SpanOf[static_cast<std::size_t>(Sp.Task)] >= 0) {
      Diags.add(makeDiag(CheckDuplicateSpan,
                         "task " + std::to_string(Sp.Task) +
                             " has more than one span (one trace must cover "
                             "exactly one run of the plan)",
                         Sp.Task));
      continue;
    }
    SpanOf[static_cast<std::size_t>(Sp.Task)] = static_cast<int>(S);
    if (Sp.T1 < Sp.T0)
      Diags.add(makeDiag(CheckReversedSpan,
                         "task " + std::to_string(Sp.Task) +
                             " span ends before it starts (" +
                             std::to_string(Sp.T1) + " < " +
                             std::to_string(Sp.T0) + " ns)",
                         Sp.Task));
  }
  for (std::size_t J = 0; J < NumTasks; ++J)
    if (SpanOf[J] < 0)
      Diags.add(makeDiag(CheckMissingSpan,
                         "task " + std::to_string(J) +
                             " was never executed: no span recorded",
                         static_cast<int>(J)));
  if (Diags.hasErrors())
    return Diags;

  // Stage 2: worker placement — a worker is one thread, so its task spans
  // must not overlap (tasks never nest inside each other; run/rung
  // container spans are exempt by construction). Spans are time-sorted, so
  // tracking the latest end per worker finds any overlap.
  {
    std::vector<std::pair<std::int64_t, int>> LastEnd; // per worker: end, task
    bool Overlap = false;
    for (const TraceSpan &Sp : T.Spans) {
      if (Sp.Kind != SpanKind::Task || Sp.Task < 0 ||
          static_cast<std::size_t>(Sp.Task) >= NumTasks)
        continue;
      if (Sp.Worker < 0) {
        Diags.add(makeDiag(CheckWorkerOverlap,
                           "task " + std::to_string(Sp.Task) +
                               " span carries no worker id",
                           Sp.Task));
        Overlap = true;
        break;
      }
      if (static_cast<std::size_t>(Sp.Worker) >= LastEnd.size())
        LastEnd.resize(static_cast<std::size_t>(Sp.Worker) + 1,
                       {std::int64_t{-1}, -1});
      auto &[End, Prev] = LastEnd[static_cast<std::size_t>(Sp.Worker)];
      if (Prev >= 0 && Sp.T0 < End) {
        Diags.add(makeDiag(CheckWorkerOverlap,
                           "tasks " + std::to_string(Prev) + " and " +
                               std::to_string(Sp.Task) +
                               " overlap on worker " +
                               std::to_string(Sp.Worker),
                           Sp.Task, Prev));
        Overlap = true;
        break;
      }
      End = std::max(End, Sp.T1);
      Prev = Sp.Task;
    }
    if (Overlap)
      return Diags;
  }

  // Stage 3: dependence order. Checking every closure pair directly would
  // let one swapped pair cascade into many reports, so walk each dependent
  // task's closure row and report only its first violated producer; since
  // stage 1 guaranteed T0 <= T1 per span, direct-edge timestamps chain
  // transitively, and a clean pass here covers the full closure.
  const std::vector<std::vector<bool>> Closure = Plan.dependenceClosure();
  for (std::size_t J = 0; J < NumTasks; ++J) {
    const TraceSpan &SJ = T.Spans[static_cast<std::size_t>(SpanOf[J])];
    for (std::size_t I = 0; I < J; ++I) {
      if (!Closure[J][I])
        continue;
      const TraceSpan &SI = T.Spans[static_cast<std::size_t>(SpanOf[I])];
      if (SI.T1 > SJ.T0) {
        Diags.add(makeDiag(
            CheckDependenceOrder,
            "task " + std::to_string(J) + " started at " +
                std::to_string(SJ.T0) + " ns before its dependence task " +
                std::to_string(I) + " finished at " + std::to_string(SI.T1) +
                " ns",
            static_cast<int>(J), static_cast<int>(I)));
        break;
      }
    }
  }

  return Diags;
}
