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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
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

namespace detail {

// The three instantiations behind KernelRegistry::define. apply() passes
// W, the write's current value, to accumulating bodies only.
template <typename Body, bool Acc, typename T, typename... Ts>
auto apply([[maybe_unused]] T W, Ts... Reads) {
  if constexpr (Acc)
    return Body{}(W, Reads...);
  else
    return Body{}(Reads...);
}

template <typename Body, bool Acc, std::size_t... J>
double scalarForm(const std::vector<double> &Reads, double W,
                  std::index_sequence<J...>) {
  return apply<Body, Acc>(W, Reads[J]...);
}

// Operand pointers and strides are hoisted out of the ascending row loop.
template <typename Body, bool Acc, std::size_t... J>
void batchedForm(double *W, const double *const *R, const std::int64_t *S,
                 std::int64_t WS, std::int64_t N, std::index_sequence<J...>) {
  [[maybe_unused]] const double *const Ptr[] = {R[J]..., nullptr};
  [[maybe_unused]] const std::int64_t Stride[] = {S[J]..., 0};
  for (std::int64_t I = 0; I < N; ++I)
    W[I * WS] = apply<Body, Acc>(W[I * WS], Ptr[J][I * Stride[J]]...);
}

template <typename Body, bool Acc, std::size_t... J>
KernelExpr exprForm(std::index_sequence<J...>) {
  return KernelExpr(apply<Body, Acc>(
      KernelExpr::current(), KernelExpr::read(static_cast<unsigned>(J))...));
}

} // namespace detail

/// A registry of executable statement bodies. A kernel receives the values
/// of its reads (flattened in declaration order: per read access, per
/// stencil point) plus the current value of the write location (so that
/// accumulating statements like the flux-difference updates can be
/// expressed) and returns the value to store.
///
/// A kernel the JIT may compile has one definition (define), from which
/// the registry derives the scalar body (the bit-equality oracle), the
/// batched row body (see BatchedKernel) and the KernelExpr the JIT emits:
/// the same C++ expression over double and over KernelExpr leaves, so the
/// three agree by construction.
class KernelRegistry {
public:
  using Kernel =
      std::function<double(const std::vector<double> &Reads, double Current)>;

  /// Registers the kernel defined by the captureless generic lambda \p Body
  /// and returns its id (it goes into LoopNest::KernelId). \p Body takes
  /// the write's current value first when \p Accumulates, then \p Arity
  /// reads:
  ///
  ///   define<2, /*Accumulates=*/true>(
  ///       [](auto W, auto R0, auto R1) { return W + 0.5 * (R1 - R0); });
  template <std::size_t Arity, bool Accumulates = false, typename Body>
  int define(Body) {
    static_assert(std::is_empty_v<Body>, "a definition captures nothing");
    using Js = std::make_index_sequence<Arity>;
    return insert(
        [](const std::vector<double> &Reads, double W) {
          return detail::scalarForm<Body, Accumulates>(Reads, W, Js());
        },
        [](double *W, const double *const *R, const std::int64_t *S,
           std::int64_t WS, std::int64_t N) {
          detail::batchedForm<Body, Accumulates>(W, R, S, WS, N, Js());
        },
        detail::exprForm<Body, Accumulates>(Js()));
  }

  /// Registers an opaque kernel, which stays on the interpreted paths;
  /// \p B, when given, is the batched form of the same body.
  int add(Kernel K, BatchedKernel B = nullptr);
  /// Registers the kernel defined by the expression \p E alone, for an
  /// arity known only at run time: its scalar body is E.eval; it has no
  /// batched body.
  int add(KernelExpr E);
  const Kernel &get(int Id) const;
  /// The batched body of kernel \p Id, or nullptr when it has none.
  BatchedKernel batched(int Id) const;
  /// The expression form of kernel \p Id, or nullptr for opaque kernels.
  const KernelExpr *expr(int Id) const;

private:
  int insert(Kernel K, BatchedKernel B, std::optional<KernelExpr> E);

  std::vector<Kernel> Kernels;
  std::vector<BatchedKernel> BatchedKernels;
  std::vector<std::optional<KernelExpr>> Exprs;
};

} // namespace codegen
} // namespace lcdfg

#endif // LCDFG_CODEGEN_INTERPRETER_H
