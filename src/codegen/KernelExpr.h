//===- codegen/KernelExpr.h - Portable kernel body expressions --*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny expression tree describing one statement body as IEEE double
/// arithmetic over its operand streams: the transparent form of a kernel
/// that the JIT backend re-emits as specialized C (src/jit). Nodes are
/// immutable and shared, so copies are cheap and expressions can be built
/// with ordinary operator syntax (KernelRegistry::define does so from a
/// kernel's one definition); a double operand becomes a literal:
///
///   KernelExpr F1 = FluxC1 * (read(1) + read(2))
///                 - FluxC2 * (read(0) + read(3));
///
/// `current()` denotes the present value of the write location (the W[...]
/// operand of accumulating statements); `read(J)` the J-th operand stream.
/// The canonical text rendering uses C hexadecimal float literals so the
/// emitted constants round-trip bit-exactly through the host compiler.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_CODEGEN_KERNELEXPR_H
#define LCDFG_CODEGEN_KERNELEXPR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lcdfg {
namespace codegen {

/// One statement body as a tree of IEEE double operations. Evaluation order
/// is fixed by the tree shape (no reassociation), so an expression evaluated
/// left-to-right matches the C the JIT emits bit-for-bit as long as the
/// compiler keeps contraction off.
class KernelExpr {
public:
  enum class Kind {
    Const,   ///< A double literal.
    Read,    ///< Operand stream J at the current row position.
    Current, ///< The write location's current value (accumulators).
    Add,
    Sub,
    Mul,
  };

  /// A literal. Implicit, so double constants mix into expressions.
  KernelExpr(double V);
  /// Leaf builders. Binary nodes come from the operator overloads below.
  static KernelExpr read(unsigned J);
  static KernelExpr current();

  /// Highest read index referenced anywhere in the tree, or -1 when the
  /// expression touches no operand stream.
  int maxRead() const;

  /// Renders the tree as a C expression. \p Read maps an operand index to
  /// its access text (e.g. "R1[I * 3]"); \p Current is the text for the
  /// write location's current value. Constants render as hexfloat literals.
  std::string render(const std::function<std::string(unsigned)> &Read,
                     const std::string &Current) const;

  /// Stable canonical text (reads as RJ, current as W) — the hashing and
  /// display form.
  std::string text() const;

  /// Scalar evaluation mirroring the interpreter: \p Reads holds one value
  /// per operand stream, \p Current the write location's present value.
  /// The scalar body of kernels registered as a bare expression.
  double eval(const std::vector<double> &Reads, double Current) const;

  /// FNV-1a over a canonical pre-order walk of the tree, folded into
  /// \p Seed. Structurally equal trees hash equal; this is the hot-path
  /// identity the JIT cache uses, so repeat lookups never re-render text.
  std::uint64_t hash(std::uint64_t Seed) const;

  /// Opaque to clients; defined in the .cpp.
  struct Node;

private:
  explicit KernelExpr(std::shared_ptr<const Node> RootIn);
  static KernelExpr binary(Kind K, const KernelExpr &L, const KernelExpr &R);

  friend KernelExpr operator+(const KernelExpr &L, const KernelExpr &R);
  friend KernelExpr operator-(const KernelExpr &L, const KernelExpr &R);
  friend KernelExpr operator*(const KernelExpr &L, const KernelExpr &R);

  std::shared_ptr<const Node> Root;
};

KernelExpr operator+(const KernelExpr &L, const KernelExpr &R);
KernelExpr operator-(const KernelExpr &L, const KernelExpr &R);
KernelExpr operator*(const KernelExpr &L, const KernelExpr &R);

/// Shorthand builders, so expression sites read like the formulas they
/// encode (see the file comment).
inline KernelExpr read(unsigned J) { return KernelExpr::read(J); }
inline KernelExpr current() { return KernelExpr::current(); }

} // namespace codegen
} // namespace lcdfg

#endif // LCDFG_CODEGEN_KERNELEXPR_H
