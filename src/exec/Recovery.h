//===- exec/Recovery.h - Graceful-degradation ladder ------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fail-operational run loop on top of exec::runPlan. A transformed
/// plan is the fast path, not the only path: when a rung of the execution
/// stack refuses or fails, runWithRecovery() retries one rung down instead
/// of dying, and records exactly which rung fired and why:
///
///   batched-parallel -> scalar-parallel -> scalar-serial
///       -> fallback (the untransformed original-schedule plan,
///          scalar-serial — the semantics of record)
///
/// Descent triggers carry stable reason codes (docs/ROBUSTNESS.md):
///
///   L001-batched-refusal    row-batching proved no safe segment cap
///   L002-worker-exception   a pool worker threw (incl. injected faults)
///   L003-verifier-error     the strict static gate flagged the plan
///   L004-redzone-violation  hardened run tripped a buffer canary
///   L005-nan-guard          hardened run left NaN in a persistent output
///   L006-plan-invalid       plan/storage validation failed (deterministic
///                           — retrying the same rung cannot help, so the
///                           ladder jumps straight to the fallback plan)
///   L007-mem-budget         the live-temporary budget could not admit the
///                           plan (E016) — the ladder waives the budget and
///                           descends to the scalar-serial rung, whose task
///                           order has the minimum footprint any admission
///                           policy could reach (completing beats failing)
///   L008-jit-unavailable    JIT kernels were requested but the engine
///                           cannot deliver them (no host compiler, cache
///                           failure, compile error — E017) or the
///                           translation validator rejected the kernel;
///                           the instruction ran on its interpreted
///                           batched bodies, bit-identical by construction
///   L009-shard-degraded     a sharded multi-process run lost a peer
///                           (E018) or an exchange deadline (E019); the
///                           coordinator restores the pre-step snapshot
///                           and re-runs the remaining steps in a single
///                           process, bit-identical to never sharding
///                           (shard::runSharded, docs/SHARDING.md)
///
/// L001 and L008 are read off the completed rung's PlanStats::Dispatch:
/// the refused instruction already ran one form lower, so nothing re-runs.
///
/// The ladder never re-runs a rung that failed deterministically, and a
/// one-shot injected fault is consumed by the rung it kills, so recovery
/// is reproducible: either some rung completes (Recovered when any descent
/// happened) or every rung is exhausted and the report carries an
/// E014-exhausted Status wrapping the last failure.
///
/// A failed attempt may have published partial results — the pool drains
/// in-flight tasks, and kernels may accumulate into persistent spaces —
/// so each store is snapshotted before its first attempt and restored
/// before every retry, keeping recovered outputs bit-identical to the
/// scalar-serial oracle no matter how late a fault fires.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_EXEC_RECOVERY_H
#define LCDFG_EXEC_RECOVERY_H

#include "exec/PlanRunner.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lcdfg {
namespace exec {

/// Stable descent reason codes. Tests and CI match on these strings.
inline constexpr const char *ReasonBatchedRefusal = "L001-batched-refusal";
inline constexpr const char *ReasonWorkerException = "L002-worker-exception";
inline constexpr const char *ReasonVerifierError = "L003-verifier-error";
inline constexpr const char *ReasonRedzone = "L004-redzone-violation";
inline constexpr const char *ReasonNanGuard = "L005-nan-guard";
inline constexpr const char *ReasonPlanInvalid = "L006-plan-invalid";
inline constexpr const char *ReasonMemBudget = "L007-mem-budget";
inline constexpr const char *ReasonJitUnavailable = "L008-jit-unavailable";
inline constexpr const char *ReasonShardDegraded = "L009-shard-degraded";

/// What one recovering run did: every rung descent with its reason, the
/// rung that finally ran (or the error that exhausted the ladder), and the
/// completed run's stats.
struct RunReport {
  struct Descent {
    std::string Rung;   ///< The rung that failed ("batched-parallel", ...).
    std::string Reason; ///< Stable L00x code.
    std::string Detail; ///< Human-readable cause (diagnostic / status).
  };
  std::vector<Descent> Descents;

  std::string FinalRung; ///< Rung that completed, or the last one tried.
  bool Completed = false;
  /// Completed after at least one descent (the fail-operational case).
  bool Recovered = false;
  /// E014-exhausted wrapping the last failure when !Completed.
  support::Status Error;
  PlanStats Stats; ///< Of the completed run.

  std::string toString() const;
  /// {"completed":...,"final_rung":...,"descents":[{...}],"error":{...}}
  std::string toJson() const;
};

/// Ladder configuration.
struct RecoverOptions {
  /// The requested starting rung: Batched/Threads/Harden are honored until
  /// a descent lowers them.
  RunOptions Run;
  /// Run the static PlanVerifier as a gate before executing each distinct
  /// plan; verifier errors descend with L003 (to the fallback plan — a
  /// statically illegal schedule will not become legal by running slower).
  bool StrictVerify = false;
  /// Kernel registry handed to the verifier's batching audit (optional).
  const codegen::KernelRegistry *VerifyKernels = nullptr;
  /// The untransformed original-schedule plan, lowered against
  /// \p FallbackStore (or the primary store when null). Must stay alive
  /// for the duration of the call.
  const ExecutionPlan *Fallback = nullptr;
  storage::ConcreteStorage *FallbackStore = nullptr;
};

/// Runs \p Plan with automatic degradation. Applies any armed structural
/// faults (modulo corruption on a plan copy, input truncation on the
/// store) before the first rung, so a fault campaign exercises the whole
/// gate + ladder path. Never throws.
RunReport runWithRecovery(const ExecutionPlan &Plan,
                          const codegen::KernelRegistry &Kernels,
                          storage::ConcreteStorage &Store,
                          const RecoverOptions &Opts = {});

} // namespace exec
} // namespace lcdfg

#endif // LCDFG_EXEC_RECOVERY_H
