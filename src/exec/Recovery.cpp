//===- exec/Recovery.cpp --------------------------------------------------===//

#include "exec/Recovery.h"

#include "exec/FaultInjector.h"
#include "exec/ThreadPool.h"
#include "obs/Trace.h"
#include "storage/StorageMap.h"
#include "support/Json.h"
#include "verify/PlanVerifier.h"

#include <sstream>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::exec;
using support::ErrorCode;
using support::Status;

namespace {

/// First error line of a diagnostics set, for descent details.
std::string firstError(const verify::Diagnostics &Diags) {
  for (const verify::Diagnostic &D : Diags.all())
    if (D.Sev == verify::Severity::Error)
      return D.toString();
  return "verifier reported errors";
}

} // namespace

std::string RunOutcome::outcomeText(std::string_view Title) const {
  std::ostringstream OS;
  OS << Title << ": "
     << (Completed ? (Recovered ? "recovered" : "completed") : "failed")
     << " at rung " << FinalRung << "\n";
  for (const Descent &D : Descents)
    OS << "  descent from " << D.Rung << " [" << D.Reason << "]: " << D.Detail
       << "\n";
  if (!Completed)
    OS << "  error: " << Error.toString() << "\n";
  return OS.str();
}

std::string RunOutcome::outcomeJson(std::string Extra, std::string Tail) const {
  using support::jsonField;
  std::vector<std::string> Items;
  for (const Descent &D : Descents)
    Items.push_back(support::jsonObject({jsonField("rung", D.Rung),
                                         jsonField("reason", D.Reason),
                                         jsonField("detail", D.Detail)}));
  return support::jsonObject(
      {jsonField("completed", Completed), jsonField("recovered", Recovered),
       jsonField("final_rung", FinalRung),
       support::jsonNested("descents", support::jsonArray(Items)),
       std::move(Extra),
       Completed ? "" : support::jsonNested("error", Error.toJson()),
       std::move(Tail)});
}

std::string RunReport::toString() const { return outcomeText("run report"); }

std::string RunReport::toJson() const { return outcomeJson(); }

RunReport exec::runWithRecovery(const ExecutionPlan &Plan,
                                const codegen::KernelRegistry &Kernels,
                                storage::ConcreteStorage &Store,
                                const RecoverOptions &Opts) {
  RunReport R;
  const ExecutionPlan *Cur = &Plan;
  storage::ConcreteStorage *CurStore = &Store;
  RunOptions O = Opts.Run;
  // Resolve the env override once so descents and rung names agree; the
  // runner's own effectiveKernelMode call is then a no-op.
  O.Kernels = effectiveKernelMode(O.Kernels);
  bool OnFallback = false;

  auto RungName = [&]() {
    std::string Name = O.Batched ? "batched" : "scalar";
    if (O.Batched && O.Kernels == KernelMode::Jit)
      Name = "jit-" + Name;
    Name += ThreadPool::effectiveThreads(O.Threads) > 1 ? "-parallel"
                                                        : "-serial";
    if (OnFallback)
      Name = "fallback-" + Name;
    return Name;
  };

  // Ladder observability: every descent is an instant event labelled with
  // its stable L00x reason, every rung attempt a span, so a traced
  // recovery reads directly off the Chrome timeline.
  obs::Tracer &Tr = obs::Tracer::global();
  auto NoteDescent = [&](const char *Reason, std::string Detail) {
    if (Tr.enabled()) {
      Tr.instant(obs::SpanKind::Marker,
                 Tr.intern("descend:" + std::string(Reason)), -1, -1,
                 static_cast<std::int32_t>(R.Descents.size()));
      Tr.add(obs::Counter::RecoveryDescents, 1);
    }
    R.Descents.push_back({RungName(), Reason, std::move(Detail)});
  };

  // Switches the ladder to the untransformed fallback plan (scalar,
  // serial). Returns false when there is nowhere left to descend.
  auto ToFallback = [&]() {
    if (OnFallback || !Opts.Fallback)
      return false;
    OnFallback = true;
    Cur = Opts.Fallback;
    CurStore = Opts.FallbackStore ? Opts.FallbackStore : &Store;
    O.Batched = false;
    O.Threads = 1;
    return true;
  };

  // Structural fault campaigns mutate the system before the first rung: a
  // corrupted modulo window lives on a plan copy (the caller's plan stays
  // pristine), a truncated input mutates the store itself.
  ExecutionPlan Corrupted;
  FaultInjector &FI = FaultInjector::global();
  if (FI.armedFor(FaultSite::Modulo)) {
    Corrupted = Plan;
    if (FI.applyPlanFault(Corrupted))
      Cur = &Corrupted;
  }
  FI.applyStorageFault(*Cur, Store);

  // A failed attempt is not side-effect-free: the pool lets in-flight
  // tasks drain, so completed tasks have already published writes into
  // persistent spaces, and kernels may accumulate into their write target
  // — re-running the plan on the mutated store would silently diverge
  // from the scalar-serial oracle. Snapshot every store before its first
  // attempt (after any storage fault, so the fault environment persists
  // across rungs) and restore it before each retry; hardened attempts get
  // the same guarantee from their publish-on-success shadow buffers, but
  // a descent can land on an unhardened rung, so restore unconditionally.
  std::vector<std::pair<storage::ConcreteStorage *,
                        std::vector<std::vector<double>>>>
      Snapshots;
  auto RestoreOrSnapshotStore = [&]() {
    for (auto &[Snapped, Spaces] : Snapshots)
      if (Snapped == CurStore) {
        for (std::size_t S = 0; S < Spaces.size(); ++S)
          Snapped->space(S) = Spaces[S];
        return;
      }
    std::vector<std::vector<double>> Spaces;
    Spaces.reserve(CurStore->numSpaces());
    for (std::size_t S = 0; S < CurStore->numSpaces(); ++S)
      Spaces.push_back(CurStore->space(S));
    Snapshots.emplace_back(CurStore, std::move(Spaces));
  };

  // Reads the completed rung's dispatch record. A refused instruction
  // already ran one form lower (scalar, or interpreted bodies) while the
  // others kept theirs, so a descent only renames the rung. An unprovable
  // interleave (L001) and undeliverable JIT (L008) are worth reporting;
  // benign refusals stay silent.
  auto DescendFromDispatch = [&] {
    for (const PlanStats::DispatchStat &D : R.Stats.Dispatch)
      if (D.Refusal == RowRefusal::UnsafeInterleave) {
        NoteDescent(ReasonBatchedRefusal,
                    "instruction " + D.Label +
                        ": no safe segment cap provable");
        O.Batched = false;
        return;
      }
    if (!O.Batched || O.Kernels != KernelMode::Jit)
      return;
    for (const PlanStats::DispatchStat &D : R.Stats.Dispatch)
      if (D.Jit == JitRefusal::EngineUnavailable ||
          D.Jit == JitRefusal::CompileFailed ||
          D.Jit == JitRefusal::ValidationRejected) {
        NoteDescent(ReasonJitUnavailable,
                    D.Jit == JitRefusal::EngineUnavailable
                        ? "engine unavailable: " + D.JitDetail
                        : "instruction " + D.Label + ": " + D.JitDetail);
        O.Kernels = KernelMode::Interp;
        return;
      }
  };

  const ExecutionPlan *Verified = nullptr;
  for (;;) {
    // Strict gate: statically verify each distinct plan before running it.
    if (Opts.StrictVerify && Cur != Verified) {
      constexpr std::int64_t VerifyBudget = std::int64_t{1} << 22;
      verify::VerifyOptions VO;
      VO.Kernels = Opts.VerifyKernels;
      VO.Budget = VerifyBudget; // statement instances
      verify::PlanVerifier V(*Cur, VO);
      verify::Diagnostics Diags = V.verify();
      Verified = Cur;
      if (Diags.hasErrors()) {
        std::string Detail = firstError(Diags);
        NoteDescent(ReasonVerifierError, Detail);
        if (ToFallback())
          continue;
        R.FinalRung = RungName();
        R.Error = Status::error(ErrorCode::Exhausted,
                                "verifier rejected the plan and no fallback "
                                "is available: " +
                                    Detail);
        return R;
      }
    }

    Status Err;
    RestoreOrSnapshotStore();
    std::int64_t Rung0 = 0;
    std::int32_t RungLabel = -1;
    if (Tr.enabled()) {
      RungLabel = Tr.intern("rung:" + RungName());
      Tr.add(obs::Counter::RecoveryRuns, 1);
      Rung0 = Tr.nowNs();
    }
    auto EndRung = [&] {
      if (RungLabel < 0)
        return;
      obs::TraceSpan S;
      S.T0 = Rung0;
      S.T1 = Tr.nowNs();
      S.Kind = obs::SpanKind::Rung;
      S.Label = RungLabel;
      S.A0 = static_cast<std::int32_t>(R.Descents.size());
      Tr.record(S);
    };
    try {
      R.Stats = runPlan(*Cur, Kernels, *CurStore, O);
      EndRung();
      DescendFromDispatch();
      R.Completed = true;
      R.Recovered = !R.Descents.empty();
      R.FinalRung = RungName();
      return R;
    } catch (const support::StatusError &E) {
      Err = E.status();
    } catch (const std::exception &E) {
      Err = Status::error(ErrorCode::Internal, E.what());
    }
    EndRung();

    switch (Err.code()) {
    case ErrorCode::PlanInvalid:
    case ErrorCode::StorageInvalid:
    case ErrorCode::UnknownArray:
    case ErrorCode::KernelMissing:
    case ErrorCode::InvalidChain:
    case ErrorCode::VerifierRejected: {
      // Deterministic rejections: the same rung would fail identically, so
      // jump straight to the fallback plan.
      NoteDescent(ReasonPlanInvalid, Err.toString());
      if (ToFallback())
        continue;
      break;
    }
    case ErrorCode::MemBudgetInfeasible: {
      // The budget (not the plan) is what failed, deterministically: no
      // retry at the same width can admit it. Waive the budget and run
      // scalar-serial — task order's footprint is the minimum any
      // admission policy could reach, so this is the closest rung to the
      // caller's memory intent that still completes.
      NoteDescent(ReasonMemBudget, Err.toString());
      O.MemBudget = 0;
      O.Threads = 1;
      continue;
    }
    case ErrorCode::GuardTripped: {
      const char *Reason = Err.subcode() == GuardSubcodeRedzone
                               ? ReasonRedzone
                               : ReasonNanGuard;
      NoteDescent(Reason, Err.toString());
      if (ToFallback())
        continue;
      break;
    }
    default: {
      // Runtime failures (worker exceptions, injected faults): retry one
      // rung down — batched->scalar, then parallel->serial, then the
      // fallback plan.
      NoteDescent(ReasonWorkerException, Err.toString());
      if (O.Batched) {
        O.Batched = false;
        continue;
      }
      if (ThreadPool::effectiveThreads(O.Threads) > 1) {
        O.Threads = 1;
        continue;
      }
      if (ToFallback())
        continue;
      break;
    }
    }

    R.FinalRung = RungName();
    R.Error = Status::error(ErrorCode::Exhausted,
                            "every degradation rung failed; last error: " +
                                Err.toString());
    return R;
  }
}
