//===- codegen/CPrinter.cpp -----------------------------------------------===//

#include "codegen/CPrinter.h"

#include <sstream>

using namespace lcdfg;
using namespace lcdfg::codegen;

namespace {

class Printer {
public:
  Printer(const graph::Graph &G, const PrintOptions &Options)
      : G(G), Options(Options) {}

  std::string run(const AstNode &Root) {
    visit(Root, /*CurrentIters=*/{});
    return OS.str();
  }

private:
  void indent() {
    for (unsigned I = 0; I < Level * Options.Indent; ++I)
      OS << ' ';
  }

  /// Renders an index expression `iter + offset - shift` simplified.
  static std::string indexExpr(const std::string &Iter, std::int64_t Delta) {
    if (Delta == 0)
      return Iter;
    std::ostringstream S;
    S << Iter << (Delta > 0 ? "+" : "-") << (Delta < 0 ? -Delta : Delta);
    return S.str();
  }

  /// Renders one array access with the storage map applied.
  std::string access(const std::string &Array,
                     const std::vector<std::string> &Iters,
                     const std::vector<std::int64_t> &Offsets,
                     const std::vector<std::int64_t> &Shift) {
    std::vector<std::string> Indices(Iters.size());
    for (std::size_t D = 0; D < Iters.size(); ++D)
      Indices[D] = indexExpr(Iters[D], Offsets[D] - Shift[D]);

    if (Options.Plan && Options.Plan->hasMap(Array)) {
      const storage::StorageMap &M = Options.Plan->map(Array);
      if (M.Kind == storage::MapKind::Modulo) {
        std::ostringstream S;
        S << "space" << M.SpaceId << "[(";
        // Linearize with the extent strides, symbolically.
        bool First = true;
        for (std::size_t D = 0; D < Indices.size(); ++D) {
          poly::AffineExpr Len = M.Extent.dim(D).Upper -
                                 M.Extent.dim(D).Lower + poly::AffineExpr(1);
          std::string Stride;
          for (std::size_t E = D + 1; E < Indices.size(); ++E) {
            poly::AffineExpr L = M.Extent.dim(E).Upper -
                                 M.Extent.dim(E).Lower +
                                 poly::AffineExpr(1);
            Stride += (Stride.empty() ? "" : "*") + std::string("(") +
                      L.toString() + ")";
          }
          (void)Len;
          if (!First)
            S << " + ";
          S << "(" << Indices[D] << ")";
          if (!Stride.empty())
            S << "*" << Stride;
          First = false;
        }
        S << ") % (" << M.Size.toString() << ")]";
        return S.str();
      }
    }
    std::ostringstream S;
    S << Array << "(";
    for (std::size_t D = 0; D < Indices.size(); ++D) {
      if (D)
        S << ", ";
      S << Indices[D];
    }
    S << ")";
    return S.str();
  }

  void visit(const AstNode &Node, std::vector<std::string> Iters) {
    switch (Node.Kind) {
    case AstKind::Block:
      for (const AstPtr &Child : Node.Children)
        visit(*Child, Iters);
      return;
    case AstKind::Loop: {
      indent();
      OS << "for (int " << Node.Iter << " = " << Node.Lower.toString()
         << "; " << Node.Iter << " <= " << Node.Upper.toString() << "; ++"
         << Node.Iter << ") {\n";
      ++Level;
      Iters.push_back(Node.Iter);
      for (const AstPtr &Child : Node.Children)
        visit(*Child, Iters);
      --Level;
      indent();
      OS << "}\n";
      return;
    }
    case AstKind::Guard: {
      indent();
      OS << "if (";
      for (unsigned D = 0; D < Node.Domain.rank(); ++D) {
        if (D)
          OS << " && ";
        const poly::Dim &Dim = Node.Domain.dim(D);
        OS << Dim.Lower.toString() << " <= " << Dim.Name << " && "
           << Dim.Name << " <= " << Dim.Upper.toString();
      }
      OS << ") {\n";
      ++Level;
      for (const AstPtr &Child : Node.Children)
        visit(*Child, Iters);
      --Level;
      indent();
      OS << "}\n";
      return;
    }
    case AstKind::StmtInstance: {
      const ir::LoopNest &Nest = G.chain().nest(Node.NestId);
      indent();
      OS << access(Nest.Write.Array, Iters, Nest.Write.Offsets.front(),
                   Node.Shift)
         << " = f_" << Nest.Name << "(";
      bool First = true;
      for (const ir::Access &R : Nest.Reads) {
        for (const auto &Off : R.Offsets) {
          if (!First)
            OS << ", ";
          OS << access(R.Array, Iters, Off, Node.Shift);
          First = false;
        }
      }
      OS << ");";
      OS << "  // " << Nest.Name << "\n";
      return;
    }
    }
  }

  const graph::Graph &G;
  const PrintOptions &Options;
  std::ostringstream OS;
  unsigned Level = 0;
};

} // namespace

std::string codegen::printC(const graph::Graph &G, const AstNode &Root,
                            const PrintOptions &Options) {
  Printer P(G, Options);
  return P.run(Root);
}

namespace {

std::string i64(std::int64_t V) { return std::to_string(V) + "LL"; }

/// `(M - C + (S-1)) / S` for S > 0, `C / -S + 1` for S < 0 — the
/// stepsToWrap formula of RowPlan.cpp with the stride and modulo size
/// folded to literals. Never requested for S == 0.
std::string stepsToWrapExpr(const std::string &Cur, std::int64_t S,
                            std::int64_t M) {
  if (S > 0)
    return "(" + i64(M) + " - " + Cur + " + " + i64(S - 1) + ") / " + i64(S);
  return Cur + " / " + i64(-S) + " + 1";
}

} // namespace

/// See the header: the emitted function is RowPlan::run's segment walker
/// specialized to one plan. Every line below mirrors a line of that walker
/// (resolveStream, the cap pass, the exec pass, advanceStream) with the
/// bounds, strides, modulo sizes and the conflict cap folded to literals —
/// which is the whole safety argument: identical chunk boundaries and
/// statement interleave mean identical results, bit for bit.
std::string codegen::printRowKernel(const RowKernelDesc &Desc,
                                    const std::string &Symbol) {
  constexpr std::int64_t Never = std::int64_t{1} << 62;
  const std::size_t NS = Desc.Stmts.size();

  auto Cur = [](std::size_t SI, std::size_t J) {
    return "C" + std::to_string(SI) + "_" + std::to_string(J);
  };
  auto Cnt = [](std::size_t SI, std::size_t J) {
    return "L" + std::to_string(SI) + "_" + std::to_string(J);
  };
  auto MW = [](std::size_t SI) { return "MW" + std::to_string(SI); };
  auto Adm = [](std::size_t SI) { return "A" + std::to_string(SI); };
  auto HasCountdown = [](const RowKernelDesc::Stream &S) {
    return S.Modulo && S.InnerStride != 0;
  };
  auto StreamsOf = [](const RowKernelDesc::Stmt &St) {
    std::vector<const RowKernelDesc::Stream *> V;
    V.push_back(&St.Write);
    for (const RowKernelDesc::Stream &R : St.Reads)
      V.push_back(&R);
    return V;
  };
  auto Emitted = [](const RowKernelDesc::Stmt &St) {
    return St.Lo <= St.Hi && St.Body; // Else never admitted with work.
  };

  std::ostringstream OS;
  OS << "/* lcdfg JIT fused row walker: " << NS << " statement(s) */\n"
     << "#include <stdint.h>\n\n"
     << "void " << Symbol << "(double *const *Spaces, const int64_t *Base,\n"
     << "    uint64_t Admit, int64_t RowLo, int64_t RowHi, int64_t *Ctrs) {\n"
     << "  int64_t Segs = 0, Wraps = 0;\n"
     << "  (void)Spaces;\n  (void)Base;\n  (void)Admit;\n";

  // Row setup: admission flags and resolveStream per admitted statement —
  // cursor at the statement's own InnerLo, wrap countdowns, the per-
  // statement countdown minimum. Constant-divisor modulo throughout.
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowKernelDesc::Stmt &St = Desc.Stmts[SI];
    if (!Emitted(St))
      continue;
    const auto Streams = StreamsOf(St);
    bool AnyCountdown = false;
    OS << "  /* S" << SI << ": " << St.Body->text() << " */\n"
       << "  const int " << Adm(SI) << " = (Admit >> " << SI << ") & 1;\n";
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      OS << "  int64_t " << Cur(SI, J) << " = 0;";
      if (HasCountdown(*Streams[J])) {
        OS << " int64_t " << Cnt(SI, J) << " = " << i64(Never) << ";";
        AnyCountdown = true;
      }
      OS << "\n";
    }
    if (AnyCountdown)
      OS << "  int64_t " << MW(SI) << " = " << i64(Never) << ";\n";
    OS << "  if (" << Adm(SI) << ") {\n";
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      const RowKernelDesc::Stream &S = *Streams[J];
      OS << "    " << Cur(SI, J) << " = Base[" << S.Flat << "] + "
         << i64(St.Lo) << " * " << i64(S.InnerStride) << ";\n";
      if (S.Modulo) {
        OS << "    " << Cur(SI, J) << " %= " << i64(S.ModSize) << "; if ("
           << Cur(SI, J) << " < 0) " << Cur(SI, J) << " += " << i64(S.ModSize)
           << ";\n";
        if (HasCountdown(S))
          OS << "    " << Cnt(SI, J) << " = "
             << stepsToWrapExpr(Cur(SI, J), S.InnerStride, S.ModSize) << ";\n";
      }
    }
    bool First = true;
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      if (!HasCountdown(*Streams[J]))
        continue;
      if (First)
        OS << "    " << MW(SI) << " = " << Cnt(SI, J) << ";\n";
      else
        OS << "    if (" << Cnt(SI, J) << " < " << MW(SI) << ") " << MW(SI)
           << " = " << Cnt(SI, J) << ";\n";
      First = false;
    }
    OS << "  }\n";
  }

  // The segment walk over the admitted row bounds, chunked exactly as the
  // interpreter chunks: conflict cap, activation boundaries, wrap
  // countdowns — then every active statement in record order.
  OS << "  int64_t X = RowLo;\n"
     << "  while (X <= RowHi) {\n"
     << "    int64_t N = RowHi - X + 1;\n";
  if (Desc.MaxSegment < Never)
    OS << "    if (N > " << i64(Desc.MaxSegment) << ") N = "
       << i64(Desc.MaxSegment) << ";\n";
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowKernelDesc::Stmt &St = Desc.Stmts[SI];
    if (!Emitted(St))
      continue;
    bool AnyCountdown = false;
    for (const RowKernelDesc::Stream *S : StreamsOf(St))
      if (HasCountdown(*S))
        AnyCountdown = true;
    OS << "    if (" << Adm(SI) << " && X <= " << i64(St.Hi) << ") {\n"
       << "      if (" << i64(St.Lo) << " > X) {\n"
       << "        if (N > " << i64(St.Lo) << " - X) N = " << i64(St.Lo)
       << " - X;\n"
       << "      } else {\n"
       << "        if (N > " << i64(St.Hi) << " - X + 1) N = " << i64(St.Hi)
       << " - X + 1;\n";
    if (AnyCountdown)
      OS << "        if (N > " << MW(SI) << ") N = " << MW(SI) << ";\n";
    OS << "      }\n"
       << "    }\n";
  }
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowKernelDesc::Stmt &St = Desc.Stmts[SI];
    if (!Emitted(St))
      continue;
    const auto Streams = StreamsOf(St);
    bool Aliased = false;
    for (const RowKernelDesc::Stream &R : St.Reads)
      if (R.AliasesWrite)
        Aliased = true;
    OS << "    if (" << Adm(SI) << " && " << i64(St.Lo) << " <= X && X <= "
       << i64(St.Hi) << ") {\n"
       << "      {\n"
       << "        double *" << (Aliased ? "" : "restrict ") << "W = Spaces["
       << St.Write.Space << "] + " << Cur(SI, 0) << ";\n";
    for (std::size_t R = 0; R < St.Reads.size(); ++R)
      OS << "        const double *"
         << (Aliased || St.Reads[R].AliasesWrite ? "" : "restrict ") << "R"
         << R << " = Spaces[" << St.Reads[R].Space << "] + " << Cur(SI, 1 + R)
         << ";\n";
    if (!Aliased)
      OS << "#pragma omp simd\n";
    const std::string Current =
        "W[I * " + std::to_string(St.Write.InnerStride) + "]";
    const std::string Expr = St.Body->render(
        [&St](unsigned J) {
          const std::int64_t Stride =
              J < St.Reads.size() ? St.Reads[J].InnerStride : 0;
          return "R" + std::to_string(J) + "[I * " + std::to_string(Stride) +
                 "]";
        },
        Current);
    OS << "        for (int64_t I = 0; I < N; ++I)\n"
       << "          " << Current << " = " << Expr << ";\n"
       << "      }\n"
       << "      ++Segs;\n";
    // advanceStream per stream; the countdown reaches exactly zero because
    // the cap pass never lets N exceed it.
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      const RowKernelDesc::Stream &S = *Streams[J];
      if (S.InnerStride != 0)
        OS << "      " << Cur(SI, J) << " += N * " << i64(S.InnerStride)
           << ";\n";
      if (HasCountdown(S))
        OS << "      if ((" << Cnt(SI, J) << " -= N) == 0) { " << Cur(SI, J)
           << " %= " << i64(S.ModSize) << "; if (" << Cur(SI, J) << " < 0) "
           << Cur(SI, J) << " += " << i64(S.ModSize) << "; " << Cnt(SI, J)
           << " = " << stepsToWrapExpr(Cur(SI, J), S.InnerStride, S.ModSize)
           << "; ++Wraps; }\n";
    }
    bool First = true;
    for (std::size_t J = 0; J < Streams.size(); ++J) {
      if (!HasCountdown(*Streams[J]))
        continue;
      if (First)
        OS << "      " << MW(SI) << " = " << Cnt(SI, J) << ";\n";
      else
        OS << "      if (" << Cnt(SI, J) << " < " << MW(SI) << ") " << MW(SI)
           << " = " << Cnt(SI, J) << ";\n";
      First = false;
    }
    OS << "    }\n";
  }
  OS << "    X += N;\n"
     << "  }\n"
     << "  Ctrs[0] += Segs;\n"
     << "  Ctrs[1] += Wraps;\n"
     << "}\n";
  return OS.str();
}
