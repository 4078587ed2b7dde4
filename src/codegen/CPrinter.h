//===- codegen/CPrinter.h - C code pretty printer ---------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints the loop AST as C-like code, applying storage mappings: direct-
/// mapped arrays print as multi-dimensional accesses, modulo-mapped buffers
/// print as `space2[(...) % 2]` (the optimized code of Figure 1).
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_CODEGEN_CPRINTER_H
#define LCDFG_CODEGEN_CPRINTER_H

#include "codegen/Ast.h"
#include "codegen/KernelExpr.h"
#include "graph/Graph.h"
#include "storage/StorageMap.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace lcdfg {
namespace codegen {

/// Options for the printer.
struct PrintOptions {
  /// Indentation width per nesting level.
  unsigned Indent = 2;
  /// When set, accesses print through the plan's storage mappings;
  /// otherwise symbolic A(i, j) form is used.
  const storage::StoragePlan *Plan = nullptr;
};

/// Prints \p Root (lowered from \p G) as C-like code.
std::string printC(const graph::Graph &G, const AstNode &Root,
                   const PrintOptions &Options = {});

/// One whole instruction row as a JIT compilation unit: every statement of
/// the RowPlan with its inner bounds, stream strides, modulo window sizes
/// and the plan's conflict cap baked in as compile-time constants. The
/// emitted function IS the segment walker of RowPlan::run, specialized —
/// same chunk boundaries, same statement interleave, same wrap handling —
/// so its execution order (and therefore every result bit) is identical to
/// the interpreted walk by construction. What changes is the cost: stream
/// resolution uses constant-divisor modulo, statement bodies are inlined
/// loops with literal strides instead of indirect BatchedKernel calls, and
/// the per-segment bookkeeping runs on compile-time-constant bounds.
struct RowKernelDesc {
  /// One access stream with its shape constants and its index into the
  /// caller's flat pre-wrap base arena (per statement: write, then reads —
  /// the layout RowPlan::run maintains).
  struct Stream {
    unsigned Space = 0;
    bool Modulo = false;
    std::int64_t ModSize = 1;
    std::int64_t InnerStride = 0;
    std::size_t Flat = 0;
    /// Reads only: stream walks the written space (drops restrict/simd).
    bool AliasesWrite = false;
  };
  struct Stmt {
    const KernelExpr *Body = nullptr;
    std::int64_t Lo = 0; ///< Innermost bounds after guard folding.
    std::int64_t Hi = -1;
    Stream Write;
    std::vector<Stream> Reads;
  };
  std::vector<Stmt> Stmts;
  /// The plan's segment-length cap (RowPlan::MaxSegment; int64 max when
  /// unconstrained).
  std::int64_t MaxSegment = std::numeric_limits<std::int64_t>::max();
};

/// The fused row kernel ABI: space table, flat pre-wrap base arena (same
/// layout as RowKernelDesc::Stream::Flat), per-statement admission bitmask
/// (bit SI = statement SI runs this row), the admitted row bounds, and a
/// two-slot counter array the kernel adds its segment and wrap-event
/// tallies to (same tallies the interpreted walker would produce).
using RowKernel = void (*)(double *const *Spaces, const std::int64_t *Base,
                           std::uint64_t Admit, std::int64_t RowLo,
                           std::int64_t RowHi, std::int64_t *Ctrs);

/// Emits one freestanding C function with the RowKernel ABI, named
/// \p Symbol: the full segment walk over [RowLo, RowHi] for the admitted
/// statements of \p Desc. Per statement body: hexfloat constants,
/// literal strides, and restrict + `#pragma omp simd` unless a read
/// aliases the write (self-referencing stencils must run ascending and in
/// order).
std::string printRowKernel(const RowKernelDesc &Desc,
                           const std::string &Symbol);

} // namespace codegen
} // namespace lcdfg

#endif // LCDFG_CODEGEN_CPRINTER_H
