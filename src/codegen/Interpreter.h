//===- codegen/Interpreter.h - Executable schedules -------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable statement bodies of a loop chain. Each loop nest's
/// computation is a kernel registered by id; a generated schedule runs by
/// lowering its AST to an exec::ExecutionPlan (ExecutionPlan::fromAst) and
/// executing that through exec::runPlan, which resolves reads and writes
/// through the storage plan (including modulo mappings) — so transformed
/// schedules are directly checkable against a reference execution of the
/// original chain.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_CODEGEN_INTERPRETER_H
#define LCDFG_CODEGEN_INTERPRETER_H

#include "codegen/KernelExpr.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace lcdfg {
namespace codegen {

/// The batched statement body ABI: processes one wrap-free row segment of
/// \p N statement instances with raw pointer arithmetic. Element I reads
/// operand J at Reads[J][I * ReadStrides[J]] (stride 0 broadcasts a single
/// value) and writes Write[I * WriteStride]; elements must be processed in
/// ascending order so self-referencing stencils match the scalar oracle.
/// The arity of Reads is fixed per kernel, so it is not passed.
using BatchedKernel = void (*)(double *Write, const double *const *Reads,
                               const std::int64_t *ReadStrides,
                               std::int64_t WriteStride, std::int64_t N);

/// A registry of executable statement bodies. A kernel receives the values
/// of its reads (flattened in declaration order: per read access, per
/// stencil point) plus the current value of the write location (so that
/// accumulating statements like the flux-difference updates can be
/// expressed) and returns the value to store.
///
/// A kernel may additionally carry a batched body (see BatchedKernel): the
/// plan runner calls it for whole wrap-free row segments instead of
/// dispatching the scalar std::function per point. The two forms must be
/// arithmetically identical expression by expression — the scalar form is
/// the bit-equality oracle the batched path is tested against.
class KernelRegistry {
public:
  using Kernel =
      std::function<double(const std::vector<double> &Reads, double Current)>;

  /// Registers a kernel; the returned id goes into LoopNest::KernelId.
  /// \p B, when given, is the batched form of the same body.
  int add(Kernel K, BatchedKernel B = nullptr);
  /// Registers a kernel with an expression form alongside the scalar and
  /// batched bodies. \p E must compute the same value as \p K — it is what
  /// the JIT backend re-emits as specialized C per segment shape.
  int add(Kernel K, BatchedKernel B, KernelExpr E);
  const Kernel &get(int Id) const;
  /// The batched body of kernel \p Id, or nullptr when only the scalar
  /// form was registered.
  BatchedKernel batched(int Id) const;
  /// The expression form of kernel \p Id, or nullptr when none was
  /// registered (opaque kernels stay on the interpreted paths).
  const KernelExpr *expr(int Id) const;

private:
  std::vector<Kernel> Kernels;
  std::vector<BatchedKernel> BatchedKernels;
  std::vector<std::optional<KernelExpr>> Exprs;
};

} // namespace codegen
} // namespace lcdfg

#endif // LCDFG_CODEGEN_INTERPRETER_H
