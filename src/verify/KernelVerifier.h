//===- verify/KernelVerifier.h - JIT translation validation -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static translation validation for the JIT kernel path. PlanVerifier
/// re-derives plan-level legality (V codes) and checkTrace audits executed
/// schedules (T codes); this pass closes the remaining rung: the C text
/// jit::Engine would hand the host compiler. It never compiles or runs
/// anything — the emitted address arithmetic (literal strides, constant-
/// divisor stream resolution, wrap countdowns, the MaxSegment cap pass) is
/// executed symbolically and compared against the RowPlan's streams, which
/// are themselves the plan's polyhedral footprint.
///
/// Claims are parsed back out of the emission text, never taken from the
/// descriptor that produced it, so a printer bug and a descriptor bug are
/// equally visible. The truth side is the RowPlan plus the registered
/// KernelExpr trees. Findings use the K-code family of verify::Diagnostics
/// (docs/KERNEL-VERIFY.md is the catalog):
///
///   K000  emission text does not have the expected walker shape
///   K001  a load/store address set differs from the plan footprint
///   K002  `#pragma omp simd` on a segment with a loop-carried dependence
///   K003  `restrict` claimed on a pointer that aliases the write stream
///   K004  fused-walker chunking diverges from the interpreted walker
///   K005  segment cap widened beyond the proven collision distance
///   K006  FP evaluation order reassociated against the registered tree
///   K007  symbolic-execution budget exhausted (walk abandoned)
///
/// Wired three ways: RowPlan::analyze refuses to install any kernel that
/// fails validation (JitRefusal::ValidationRejected, surfaced through the
/// L008 recovery rung), `lcdfg-opt --verify` runs it whenever a JIT engine
/// is selectable, and `lcdfg-lint --jit-static` validates every example
/// config without needing a host compiler present.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_VERIFY_KERNELVERIFIER_H
#define LCDFG_VERIFY_KERNELVERIFIER_H

#include "codegen/Interpreter.h"
#include "exec/RowPlan.h"
#include "verify/Diagnostics.h"

#include <cstdint>
#include <string>

namespace lcdfg {
namespace verify {

/// Options for the kernel verifier.
struct KernelVerifyOptions {
  /// Upper bound on symbolically compared statement-instance accesses per
  /// row kernel. Exceeding it abandons the walk with a K007 warning — the
  /// checks that did run stand, nothing is silently skipped without a
  /// diagnostic.
  std::int64_t Budget = std::int64_t{1} << 20;
  /// Instruction index stamped on diagnostics (-1 when unknown).
  int Instr = -1;
};

/// Validates the fused row walker jit::Engine would compile for one
/// instruction. Holds references only — the instruction, plan and registry
/// must outlive the verifier.
class KernelVerifier {
public:
  KernelVerifier(const exec::NestInstr &Instr, const exec::RowPlan &Plan,
                 const codegen::KernelRegistry &Kernels,
                 KernelVerifyOptions Opts = {});
  KernelVerifier(const exec::NestInstr &&, const exec::RowPlan &,
                 const codegen::KernelRegistry &,
                 KernelVerifyOptions = {}) = delete;
  KernelVerifier(const exec::NestInstr &, const exec::RowPlan &&,
                 const codegen::KernelRegistry &,
                 KernelVerifyOptions = {}) = delete;

  /// Validates the fused row-walker emission \p Text (printRowKernel
  /// output) by symbolically executing its claimed cursor arithmetic over
  /// the full outer iteration space and comparing step for step against
  /// the interpreted walker: cap claims (K005), chunk boundaries (K004),
  /// per-point addresses (K001), plus the per-statement body and alias
  /// checks (K006/K002/K003). Appends findings to \p Diags.
  void verifyRowKernel(const std::string &Text, Diagnostics &Diags);

private:
  const exec::NestInstr &Instr;
  const exec::RowPlan &Plan;
  const codegen::KernelRegistry &Kernels;
  KernelVerifyOptions Opts;
};

/// Runs the full static validation of everything jit::Engine would be
/// asked to compile for \p Plan: the row walker of every row-batchable
/// instruction with a fused-row form. Never constructs an engine and never
/// invokes a host compiler; instructions that stay scalar (or have no
/// fused-row form) contribute nothing, exactly as they would never reach
/// the engine.
Diagnostics verifyPlanKernels(const exec::ExecutionPlan &Plan,
                              const codegen::KernelRegistry &Kernels,
                              const KernelVerifyOptions &Opts = {});

} // namespace verify
} // namespace lcdfg

#endif // LCDFG_VERIFY_KERNELVERIFIER_H
