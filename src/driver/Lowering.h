//===- driver/Lowering.h - The shared front half for chains -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's compiler front half — loop chain -> M2DFG -> transformations
/// -> storage mapping -> code (§3-4) — as two stages every chain consumer
/// (lcdfg-serve, lcdfg-opt, lcdfg-lint) lowers through:
///
///   Scheduled  the chain and the graph bound to it; the caller applies its
///              own transform (a script, the auto-scheduler, reuse-distance
///              reduction, a MiniFluxDiv recipe) to the graph in place.
///   Lowered    everything a run needs at one concrete size: the kernel
///              registry with stand-ins filled in, the parameter env, the
///              (widened, allocated) storage plan, the AST, the execution
///              plan, and the untransformed fallback graph, storage plan
///              and plan the recovery ladder descends to.
///
/// Parsed chains carry no executable kernels, so every nest without one
/// gets the sum-of-reads stand-in defined here (its one definition: scalar,
/// batched, and expression body), and persistent inputs are seeded with the
/// one deterministic pattern below.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_DRIVER_LOWERING_H
#define LCDFG_DRIVER_LOWERING_H

#include "codegen/Ast.h"
#include "codegen/Interpreter.h"
#include "exec/ExecutionPlan.h"
#include "graph/Graph.h"
#include "ir/LoopChain.h"
#include "storage/StorageMap.h"
#include "support/Status.h"
#include "verify/Diagnostics.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

namespace lcdfg {
namespace driver {

/// Registers the sum-of-reads stand-in over \p Arity reads and returns its
/// id. The accumulating form adds the reads to the target's current value;
/// the \p Pure form (hardened runs) starts from 0.0, because under
/// NaN-poisoned temporaries reading the unwritten target is exactly the
/// read-before-write the guard flags. The scalar, batched and expression
/// bodies derive from one left fold, so interpreted, batched and JIT runs
/// are bit-identical; the batched body exists for arities up to 8.
int addStandInKernel(codegen::KernelRegistry &Kernels, std::size_t Arity,
                     bool Pure);

/// Gives every nest of \p Chain that has no kernel a stand-in; nests of
/// equal read arity (stencil points over all reads) share one id.
void assignStandInKernels(ir::LoopChain &Chain,
                          codegen::KernelRegistry &Kernels, bool Pure);

/// Seeds every persistent input of \p Chain in \p Store with
/// 0.001 * ((I * 2654435761) mod 1000) — the same pattern for every run,
/// which is what makes cross-run bit-identity checkable.
void seedInputs(const ir::LoopChain &Chain, storage::ConcreteStorage &Store);

/// Stage 1: a chain and its M2DFG. The chain lives on the heap because the
/// graph points at it, so a Scheduled (and a Lowered) moves freely.
struct Scheduled {
  explicit Scheduled(ir::LoopChain C);

  std::unique_ptr<ir::LoopChain> Chain;
  /// Bound to *Chain and always engaged (an optional so serve's
  /// CompiledPlan keeps its `*G` interface). The caller transforms it in
  /// place.
  std::optional<graph::Graph> G;
};

/// What a lowering is specialized on.
struct LowerOptions {
  std::int64_t Size = 8; ///< Bound to every extent symbol (N M X Y Z W).
  unsigned Widen = 1;    ///< StoragePlan modulo widening factor.
  bool Harden = false;   ///< Pure stand-ins (see addStandInKernel).
};

/// Stage 2: a Scheduled lowered at one concrete size. The members keep
/// each other alive: the plans address spaces laid out by their storage
/// plans, streams resolved against any ConcreteStorage(SPlan, Env), and
/// kernel ids registered in Kernels.
struct Lowered : Scheduled {
  /// Lowers \p S. \p Kernels may already hold real kernels (nests with a
  /// KernelId keep theirs); the stand-ins are added for the rest. Storage
  /// (E003/E007) and lowering (E008) failures come back as a Status.
  static support::Expected<Lowered> lower(Scheduled S,
                                          codegen::KernelRegistry Kernels,
                                          const LowerOptions &Opts);

  codegen::KernelRegistry Kernels;
  exec::ParamEnv Env;
  storage::StoragePlan SPlan; ///< UseAllocation, widened.
  codegen::AstPtr Ast;
  exec::ExecutionPlan Plan;

  /// Untransformed reference for the fallback rung, lowered against its
  /// own storage plan (the transformed store may have collapsed arrays the
  /// fallback still writes in full).
  std::optional<graph::Graph> RefG;
  storage::StoragePlan FbSPlan;
  exec::ExecutionPlan FbPlan;

  std::int64_t StoreBytes = 0;    ///< One ConcreteStorage(SPlan, Env).
  std::int64_t FallbackBytes = 0; ///< One ConcreteStorage(FbSPlan, Env).

  /// seedInputs over this lowering's chain.
  void seedStore(storage::ConcreteStorage &Store) const;

  /// Static legality of the primary plan (PlanVerifier with the kernel
  /// registry, then the graph-level schedule check).
  verify::Diagnostics verify() const;

private:
  explicit Lowered(Scheduled S) : Scheduled(std::move(S)) {}
};

} // namespace driver
} // namespace lcdfg

#endif // LCDFG_DRIVER_LOWERING_H
