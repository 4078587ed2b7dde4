//===- verify/KernelVerifier.cpp - JIT translation validation -------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
//
// The validator has two halves. A fact scanner parses claims back out of the
// emission text itself — strides, modulo sizes, wrap countdowns, restrict
// and simd markers, the cap clamp — so a bug in the printer and a bug in the
// descriptor that fed it are equally visible. A symbolic executor then runs
// the claimed walker against the interpreted one: the truth side computes
// every address from the plan's polyhedral form (Base + dot(outer iters,
// strides) + x * inner stride, wrapped), never from the incremental cursor
// arithmetic it is checking.
//
//===----------------------------------------------------------------------===//

#include "verify/KernelVerifier.h"

#include "codegen/CPrinter.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>

using namespace lcdfg;
using namespace lcdfg::verify;

namespace {

/// The emitted walker's "no countdown" sentinel (printRowKernel).
constexpr std::int64_t Never = std::int64_t{1} << 62;

/// Floored modulo into [0, M). Independent re-derivation of the walker's
/// wrap; M must be positive.
std::int64_t wrapIdx(std::int64_t V, std::int64_t M) {
  V %= M;
  return V < 0 ? V + M : V;
}

/// Inner steps from wrapped index \p W until the next wrap with per-step
/// advance \p S != 0 and window \p M.
std::int64_t stepsToWrap(std::int64_t W, std::int64_t S, std::int64_t M) {
  if (S > 0)
    return (M - W + S - 1) / S;
  return W / -S + 1;
}

bool startsAt(const std::string &T, std::size_t P, const std::string &S) {
  return P <= T.size() && T.compare(P, S.size(), S) == 0;
}

/// Parses a decimal (possibly negative) int64 at \p Pos, advancing it.
/// Unsigned accumulation so a hostile 19-digit literal cannot overflow.
bool parseIntAt(const std::string &T, std::size_t &Pos, std::int64_t &Out) {
  std::size_t P = Pos;
  bool Neg = false;
  if (P < T.size() && T[P] == '-') {
    Neg = true;
    ++P;
  }
  std::uint64_t V = 0;
  std::size_t Digits = 0;
  while (P < T.size() && T[P] >= '0' && T[P] <= '9') {
    if (++Digits > 19)
      return false;
    V = V * 10 + static_cast<std::uint64_t>(T[P] - '0');
    ++P;
  }
  if (Digits == 0 ||
      V > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
    return false;
  Out = Neg ? -static_cast<std::int64_t>(V) : static_cast<std::int64_t>(V);
  Pos = P;
  return true;
}

/// Finds \p Prefix at or after \p From and parses the integer right behind
/// it. Returns the offset just past the integer, or npos.
std::size_t intAfter(const std::string &T, std::size_t From,
                     const std::string &Prefix, std::int64_t &Out) {
  const std::size_t P = T.find(Prefix, From);
  if (P == std::string::npos)
    return std::string::npos;
  std::size_t Q = P + Prefix.size();
  if (!parseIntAt(T, Q, Out))
    return std::string::npos;
  return Q;
}

/// Claims scanned out of one statement body's right-hand side: operand
/// strides from every "R<j>[I * k]" / "W[I * k]" occurrence, plus the
/// normalized expression text (brackets stripped), which must equal the
/// registered tree's canonical text if no reassociation happened.
struct BodyClaims {
  std::string Normalized;
  std::optional<std::int64_t> CurrentStride;
  std::vector<std::optional<std::int64_t>> ReadStrides;
  bool Consistent = true; ///< One operand never claims two strides.
};

BodyClaims scanBody(const std::string &Rhs, std::size_t Arity) {
  BodyClaims B;
  B.ReadStrides.assign(Arity, std::nullopt);
  auto Note = [&B](std::optional<std::int64_t> &Slot, std::int64_t K) {
    if (Slot && *Slot != K)
      B.Consistent = false;
    Slot = K;
  };
  std::size_t P = 0;
  while (P < Rhs.size()) {
    if (Rhs[P] == 'W' && startsAt(Rhs, P + 1, "[I * ")) {
      std::size_t Q = P + 6;
      std::int64_t K = 0;
      if (parseIntAt(Rhs, Q, K) && Q < Rhs.size() && Rhs[Q] == ']') {
        Note(B.CurrentStride, K);
        B.Normalized += 'W';
        P = Q + 1;
        continue;
      }
    }
    if (Rhs[P] == 'R') {
      std::size_t Q = P + 1;
      std::int64_t J = 0;
      if (parseIntAt(Rhs, Q, J) && startsAt(Rhs, Q, "[I * ")) {
        std::size_t E = Q + 5;
        std::int64_t K = 0;
        if (parseIntAt(Rhs, E, K) && E < Rhs.size() && Rhs[E] == ']') {
          B.Normalized += "R" + std::to_string(J);
          if (J >= 0 && static_cast<std::size_t>(J) < Arity)
            Note(B.ReadStrides[static_cast<std::size_t>(J)], K);
          else
            B.Consistent = false;
          P = E + 1;
          continue;
        }
      }
    }
    B.Normalized += Rhs[P];
    ++P;
  }
  return B;
}

/// Claims for one cursor of the fused walker: the setup line, the optional
/// setup wrap and countdown declaration, and the advance / wrap-advance
/// lines of the exec pass. The countdown *initialization formula* is the
/// one piece taken on faith (its constants are cross-checked through the
/// setup and wrap lines); docs/KERNEL-VERIFY.md lists it under "assumed".
struct StreamClaims {
  bool HaveSetup = false;
  std::int64_t Flat = 0;
  std::int64_t Lo = 0;
  std::int64_t SetupStride = 0;
  bool SetupWrap = false;
  std::int64_t SetupMod = 0;
  bool Countdown = false;
  bool HaveAdvance = false;
  std::int64_t AdvStride = 0;
  bool WrapAdvance = false;
  std::int64_t WrapMod = 0;
};

/// Claims for one statement of the fused walker.
struct RowStmtClaims {
  bool Emitted = false;
  std::int64_t Lo = 0;
  std::int64_t Hi = -1;
  bool HasMWClamp = false;
  bool Simd = false;
  bool RestrictW = false;
  bool HaveW = false;
  std::int64_t WSpace = -1;
  std::vector<char> RestrictR;
  std::vector<char> ReadDeclared;
  std::vector<std::int64_t> RSpace;
  bool BodyOk = false;
  std::int64_t WLhsStride = 0;
  BodyClaims Body;
  std::vector<StreamClaims> Streams; ///< Write, then reads.
};

struct RowClaims {
  std::int64_t Cap = Never;
  std::vector<RowStmtClaims> Stmts;
};

RowClaims parseRowText(const std::string &T, const exec::RowPlan &Plan) {
  RowClaims C;
  const std::size_t NS = Plan.Stmts.size();
  C.Stmts.resize(NS);

  // The global cap clamp sits at 4-space indent right after the walk
  // header; the per-statement clamps are deeper and compare against X or
  // MW<SI>, so this prefix matches only the cap.
  {
    std::int64_t Cap = 0;
    const std::size_t E = intAfter(T, 0, "\n    if (N > ", Cap);
    if (E != std::string::npos && startsAt(T, E, "LL) N = "))
      C.Cap = Cap;
  }

  for (std::size_t SI = 0; SI < NS; ++SI) {
    RowStmtClaims &SC = C.Stmts[SI];
    const std::size_t NR = Plan.Stmts[SI].Reads.size();
    SC.Streams.resize(1 + NR);
    SC.RestrictR.assign(NR, 0);
    SC.ReadDeclared.assign(NR, 0);
    SC.RSpace.assign(NR, -1);
    const std::string SIs = std::to_string(SI);

    for (std::size_t J = 0; J <= NR; ++J) {
      StreamClaims &S = SC.Streams[J];
      const std::string CurN = "C" + SIs + "_" + std::to_string(J);
      const std::string CntN = "L" + SIs + "_" + std::to_string(J);
      std::int64_t V = 0;
      std::size_t E = intAfter(T, 0, "\n    " + CurN + " = Base[", V);
      if (E != std::string::npos && startsAt(T, E, "] + ")) {
        S.Flat = V;
        std::size_t Q = E + 4;
        if (parseIntAt(T, Q, S.Lo) && startsAt(T, Q, "LL * ")) {
          Q += 5;
          if (parseIntAt(T, Q, S.SetupStride) && startsAt(T, Q, "LL;"))
            S.HaveSetup = true;
        }
      }
      E = intAfter(T, 0, "\n    " + CurN + " %= ", V);
      if (E != std::string::npos && startsAt(T, E, "LL;")) {
        S.SetupWrap = true;
        S.SetupMod = V;
      }
      S.Countdown = T.find("int64_t " + CntN + " = ") != std::string::npos;
      E = intAfter(T, 0, "\n      " + CurN + " += N * ", V);
      if (E != std::string::npos && startsAt(T, E, "LL;")) {
        S.HaveAdvance = true;
        S.AdvStride = V;
      }
      E = intAfter(T, 0, "if ((" + CntN + " -= N) == 0) { " + CurN + " %= ",
                   V);
      if (E != std::string::npos && startsAt(T, E, "LL;")) {
        S.WrapAdvance = true;
        S.WrapMod = V;
      }
    }

    SC.HasMWClamp =
        T.find("if (N > MW" + SIs + ")") != std::string::npos;

    // Exec-pass opener: "if (A<SI> && <lo>LL <= X && X <= <hi>LL) {". The
    // cap-pass opener for the same statement reads "&& X <=" instead, so a
    // literal right after "&& " disambiguates the two.
    const std::string OpenPfx = "    if (A" + SIs + " && ";
    std::size_t Opener = std::string::npos;
    for (std::size_t P = T.find(OpenPfx); P != std::string::npos;
         P = T.find(OpenPfx, P + 1)) {
      std::size_t Q = P + OpenPfx.size();
      std::int64_t Lo = 0, Hi = 0;
      if (!parseIntAt(T, Q, Lo) || !startsAt(T, Q, "LL <= X && X <= "))
        continue;
      Q += 16;
      if (!parseIntAt(T, Q, Hi) || !startsAt(T, Q, "LL) {"))
        continue;
      SC.Lo = Lo;
      SC.Hi = Hi;
      Opener = P;
      break;
    }
    if (Opener == std::string::npos)
      continue;
    SC.Emitted = true;
    std::size_t BlockEnd = T.find("\n    }", Opener);
    if (BlockEnd == std::string::npos)
      BlockEnd = T.size();

    SC.Simd = [&] {
      const std::size_t P = T.find("#pragma omp simd", Opener);
      return P != std::string::npos && P < BlockEnd;
    }();

    // "        double *" matches only the write pointer: the read pointer
    // lines start with "        const".
    std::size_t P = T.find("        double *", Opener);
    if (P != std::string::npos && P < BlockEnd) {
      std::size_t Q = P + 16;
      const bool Rq = startsAt(T, Q, "restrict ");
      if (Rq)
        Q += 9;
      if (startsAt(T, Q, "W = Spaces[")) {
        Q += 11;
        std::int64_t Sp = 0;
        if (parseIntAt(T, Q, Sp) && startsAt(T, Q, "] + C" + SIs + "_0;")) {
          SC.HaveW = true;
          SC.WSpace = Sp;
          SC.RestrictW = Rq;
        }
      }
    }
    for (std::size_t R = 0; R < NR; ++R) {
      const std::string Tail = "R" + std::to_string(R) + " = Spaces[";
      bool Rq = true;
      P = T.find("        const double *restrict " + Tail, Opener);
      if (P == std::string::npos || P >= BlockEnd) {
        Rq = false;
        P = T.find("        const double *" + Tail, Opener);
      }
      if (P == std::string::npos || P >= BlockEnd)
        continue;
      std::size_t Q = T.find("Spaces[", P) + 7;
      std::int64_t Sp = 0;
      if (parseIntAt(T, Q, Sp) &&
          startsAt(T, Q, "] + C" + SIs + "_" + std::to_string(R + 1) + ";")) {
        SC.ReadDeclared[R] = 1;
        SC.RSpace[R] = Sp;
        SC.RestrictR[R] = Rq ? 1 : 0;
      }
    }

    P = T.find("W[I * ", Opener);
    if (P != std::string::npos && P < BlockEnd) {
      std::size_t Q = P + 6;
      if (parseIntAt(T, Q, SC.WLhsStride) && startsAt(T, Q, "] = ")) {
        Q += 4;
        const std::size_t End = T.find(';', Q);
        if (End != std::string::npos && End < BlockEnd) {
          SC.Body = scanBody(T.substr(Q, End - Q), NR);
          SC.BodyOk = true;
        }
      }
    }
  }
  return C;
}

/// Operand streams the registered tree actually loads — the statement's
/// footprint covers only these (plus the write, and the write again when
/// the tree uses current()).
std::vector<char> usedReads(const codegen::KernelExpr &E, std::size_t Arity) {
  std::vector<char> Used(Arity, 0);
  (void)E.render(
      [&Used, Arity](unsigned J) {
        if (J < Arity)
          Used[J] = 1;
        return "R" + std::to_string(J);
      },
      "W");
  return Used;
}

std::string capText(std::int64_t Cap) {
  return Cap >= Never ? std::string("unbounded") : std::to_string(Cap);
}

} // namespace

KernelVerifier::KernelVerifier(const exec::NestInstr &Instr,
                               const exec::RowPlan &Plan,
                               const codegen::KernelRegistry &Kernels,
                               KernelVerifyOptions Opts)
    : Instr(Instr), Plan(Plan), Kernels(Kernels), Opts(Opts) {}

void KernelVerifier::verifyRowKernel(const std::string &Text,
                                     Diagnostics &Diags) {
  auto Mk = [&](const char *Check, std::string Msg) {
    Diagnostic D;
    D.CheckId = Check;
    D.Message = std::move(Msg);
    D.Instr = Opts.Instr;
    return D;
  };
  const std::size_t NS = Plan.Stmts.size();
  if (NS == 0 || NS != Instr.Stmts.size()) {
    Diags.add(Mk(CheckKernelShape,
                 "row kernel for a plan whose statement table does not "
                 "match its instruction"));
    return;
  }
  std::vector<const codegen::KernelExpr *> Exprs(NS, nullptr);
  std::vector<std::vector<char>> Used(NS);
  for (std::size_t SI = 0; SI < NS; ++SI) {
    Exprs[SI] = Kernels.expr(Instr.Stmts[SI].KernelId);
    if (!Exprs[SI]) {
      Diags.add(Mk(CheckKernelShape,
                   "statement " + std::to_string(SI) +
                       " has no registered expression form"));
      return;
    }
    Used[SI] = usedReads(*Exprs[SI], Plan.Stmts[SI].Reads.size());
  }
  const RowClaims C = parseRowText(Text, Plan);

  // Truth arena layout: per statement, write then reads — the Start[]
  // layout RowPlan::run maintains and the emitted Base[] indices must hit.
  std::vector<std::size_t> Start(NS + 1, 0);
  for (std::size_t SI = 0; SI < NS; ++SI)
    Start[SI + 1] = Start[SI] + 1 + Plan.Stmts[SI].Reads.size();
  const std::size_t Total = Start[NS];
  auto StreamOf = [&](std::size_t SI, std::size_t J) -> const exec::RowStream & {
    return J == 0 ? Plan.Stmts[SI].Write : Plan.Stmts[SI].Reads[J - 1];
  };

  // Shape pass: a statement the plan would emit must have parsed fully.
  std::vector<char> ShouldEmit(NS, 0);
  for (std::size_t SI = 0; SI < NS; ++SI) {
    ShouldEmit[SI] = Plan.Stmts[SI].InnerLo <= Plan.Stmts[SI].InnerHi;
    const RowStmtClaims &SC = C.Stmts[SI];
    if (!ShouldEmit[SI] || !SC.Emitted)
      continue;
    bool SetupOk = true;
    for (const StreamClaims &S : SC.Streams)
      SetupOk = SetupOk && S.HaveSetup;
    if (!SC.HaveW || !SC.BodyOk || !SetupOk) {
      Diags.add(Mk(CheckKernelShape,
                   "statement " + std::to_string(SI) +
                       ": emission does not have the expected walker shape"));
      return;
    }
  }

  // K006 per statement.
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowStmtClaims &SC = C.Stmts[SI];
    if (!SC.Emitted)
      continue;
    if (SC.Body.Normalized != Exprs[SI]->text()) {
      Diags.add(Mk(CheckKernelFpReassociation,
                   "statement " + std::to_string(SI) + " body `" +
                       SC.Body.Normalized +
                       "` is not the registered tree `" + Exprs[SI]->text() +
                       "`"));
      return;
    }
  }

  // K002/K003 per statement, against the plan's own alias facts.
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowStmtClaims &SC = C.Stmts[SI];
    if (!SC.Emitted)
      continue;
    const exec::RowStmt &RS = Plan.Stmts[SI];
    bool AliasAny = false;
    for (const exec::RowStream &R : RS.Reads)
      AliasAny = AliasAny || R.Space == RS.Write.Space;
    if (!AliasAny)
      continue;
    if (SC.Simd) {
      Diagnostic D = Mk(CheckKernelSimdUnsafe,
                        "statement " + std::to_string(SI) +
                            ": #pragma omp simd on a segment with a read "
                            "into the written space (loop-carried "
                            "dependence)");
      D.Space = static_cast<int>(RS.Write.Space);
      Diags.add(std::move(D));
      return;
    }
    bool AnyRestrict = SC.RestrictW;
    for (char R : SC.RestrictR)
      AnyRestrict = AnyRestrict || R;
    if (AnyRestrict) {
      Diagnostic D = Mk(CheckKernelRestrictAlias,
                        "statement " + std::to_string(SI) +
                            ": restrict-qualified pointer on a segment "
                            "whose read and write streams share a space");
      D.Space = static_cast<int>(RS.Write.Space);
      Diags.add(std::move(D));
      return;
    }
  }

  // Constant footprint claims: statement presence, base-arena slots,
  // space-table indices, operand pointer bindings, stride consistency.
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowStmtClaims &SC = C.Stmts[SI];
    const exec::RowStmt &RS = Plan.Stmts[SI];
    if (ShouldEmit[SI] && !SC.Emitted) {
      Diagnostic D = Mk(CheckKernelFootprint,
                        "statement " + std::to_string(SI) +
                            " is absent from the emitted walker: its whole "
                            "access set is missing");
      D.Space = static_cast<int>(RS.Write.Space);
      Diags.add(std::move(D));
      return;
    }
    if (!SC.Emitted)
      continue;
    for (std::size_t J = 0; J < SC.Streams.size(); ++J)
      if (SC.Streams[J].Flat !=
          static_cast<std::int64_t>(Start[SI] + J)) {
        Diags.add(Mk(CheckKernelFootprint,
                     "statement " + std::to_string(SI) + " stream " +
                         std::to_string(J) + " reads base-arena slot " +
                         std::to_string(SC.Streams[J].Flat) +
                         "; the caller maintains it at slot " +
                         std::to_string(Start[SI] + J)));
        return;
      }
    if (SC.WSpace != static_cast<std::int64_t>(RS.Write.Space)) {
      Diagnostic D = Mk(CheckKernelFootprint,
                        "statement " + std::to_string(SI) +
                            " writes space " + std::to_string(SC.WSpace) +
                            ", plan footprint is space " +
                            std::to_string(RS.Write.Space));
      D.Space = static_cast<int>(RS.Write.Space);
      Diags.add(std::move(D));
      return;
    }
    if (!SC.Body.Consistent) {
      Diags.add(Mk(CheckKernelFootprint,
                   "statement " + std::to_string(SI) +
                       ": one operand is loaded with two different "
                       "strides"));
      return;
    }
    for (std::size_t J = 0; J < RS.Reads.size(); ++J) {
      if (!Used[SI][J])
        continue;
      if (!SC.ReadDeclared[J]) {
        Diagnostic D = Mk(CheckKernelFootprint,
                          "statement " + std::to_string(SI) + " read " +
                              std::to_string(J) +
                              " is never bound to its stream");
        D.Space = static_cast<int>(RS.Reads[J].Space);
        Diags.add(std::move(D));
        return;
      }
      if (SC.RSpace[J] != static_cast<std::int64_t>(RS.Reads[J].Space)) {
        Diagnostic D = Mk(CheckKernelFootprint,
                          "statement " + std::to_string(SI) + " read " +
                              std::to_string(J) + " loads space " +
                              std::to_string(SC.RSpace[J]) +
                              ", plan footprint is space " +
                              std::to_string(RS.Reads[J].Space));
        D.Space = static_cast<int>(RS.Reads[J].Space);
        Diags.add(std::move(D));
        return;
      }
    }
  }

  // Symbolic walk machinery. Truth addresses always come from the
  // polyhedral form, never from cursor arithmetic.
  const std::size_t OL = Plan.Outer.size();
  std::vector<std::int64_t> Iter(OL, 0);
  auto PolyBase = [&](const exec::RowStream &S) {
    std::int64_t B = S.Base;
    for (std::size_t L = 0; L < OL; ++L)
      B += (Iter[L] - Plan.Outer[L].Lo) * S.OuterStrides[L];
    return B;
  };
  auto PolyAddr = [&](const exec::RowStream &S, std::int64_t X) {
    const std::int64_t A = PolyBase(S) + X * S.InnerStride;
    return S.Modulo ? wrapIdx(A, S.ModSize) : A;
  };

  std::int64_t BudgetLeft = Opts.Budget;
  bool BudgetOut = false;

  /// Runs \p CB once per row of the outer iteration space with the truth
  /// admission mask and the (truth) row bounds the caller would pass in.
  auto ForEachRow =
      [&](const std::function<bool(const std::vector<char> &, std::int64_t,
                                   std::int64_t)> &CB) {
        for (std::size_t L = 0; L < OL; ++L) {
          if (Plan.Outer[L].Lo > Plan.Outer[L].Hi)
            return;
          Iter[L] = Plan.Outer[L].Lo;
        }
        for (;;) {
          std::vector<char> Adm(NS, 0);
          std::int64_t RowLo = 0, RowHi = -1;
          bool Any = false;
          for (std::size_t SI = 0; SI < NS; ++SI) {
            const exec::RowStmt &S = Plan.Stmts[SI];
            if (S.InnerLo > S.InnerHi)
              continue;
            bool Ok = true;
            for (const exec::GuardBound &Gd : S.RowGuards)
              if (Iter[Gd.Level] < Gd.Lo || Iter[Gd.Level] > Gd.Hi) {
                Ok = false;
                break;
              }
            if (!Ok)
              continue;
            Adm[SI] = 1;
            if (!Any || S.InnerLo < RowLo)
              RowLo = S.InnerLo;
            if (!Any || S.InnerHi > RowHi)
              RowHi = S.InnerHi;
            Any = true;
          }
          if (Any && !CB(Adm, RowLo, RowHi))
            return;
          if (OL == 0)
            return;
          std::size_t L = OL;
          for (;;) {
            if (L == 0)
              return;
            --L;
            if (++Iter[L] <= Plan.Outer[L].Hi)
              break;
            Iter[L] = Plan.Outer[L].Lo;
          }
        }
      };

  struct Chunk {
    std::int64_t X = 0;
    std::int64_t N = 0;
    std::uint64_t Active = 0;
  };

  /// The interpreted walker's chunking for one row, re-derived from the
  /// plan streams (RowPlan::run's cap pass with truth constants).
  auto TruthChunksRow = [&](const std::vector<char> &Adm, std::int64_t RowLo,
                            std::int64_t RowHi, std::vector<Chunk> &Out) {
    std::vector<std::int64_t> Cur(Total, 0), Cnt(Total, Never);
    std::vector<std::int64_t> MinW(NS, Never);
    for (std::size_t SI = 0; SI < NS; ++SI) {
      if (!Adm[SI])
        continue;
      const exec::RowStmt &RS = Plan.Stmts[SI];
      for (std::size_t J = 0; J < 1 + RS.Reads.size(); ++J) {
        const exec::RowStream &S = StreamOf(SI, J);
        const std::size_t F = Start[SI] + J;
        Cur[F] = PolyBase(S) + RS.InnerLo * S.InnerStride;
        if (S.Modulo) {
          Cur[F] = wrapIdx(Cur[F], S.ModSize);
          if (S.InnerStride != 0)
            Cnt[F] = stepsToWrap(Cur[F], S.InnerStride, S.ModSize);
        }
        MinW[SI] = std::min(MinW[SI], Cnt[F]);
      }
    }
    std::int64_t X = RowLo;
    while (X <= RowHi) {
      std::int64_t N = std::min(RowHi - X + 1, Plan.MaxSegment);
      for (std::size_t SI = 0; SI < NS; ++SI) {
        const exec::RowStmt &S = Plan.Stmts[SI];
        if (!Adm[SI] || S.InnerHi < X)
          continue;
        if (S.InnerLo > X) {
          N = std::min(N, S.InnerLo - X);
          continue;
        }
        N = std::min(N, std::min(S.InnerHi - X + 1, MinW[SI]));
      }
      if (N <= 0)
        return; // Unreachable for a well-formed plan; stay finite.
      Chunk Ck;
      Ck.X = X;
      Ck.N = N;
      for (std::size_t SI = 0; SI < NS; ++SI) {
        const exec::RowStmt &S = Plan.Stmts[SI];
        if (!Adm[SI] || S.InnerLo > X || S.InnerHi < X)
          continue;
        Ck.Active |= std::uint64_t{1} << SI;
        for (std::size_t J = 0; J < 1 + S.Reads.size(); ++J) {
          const exec::RowStream &St = StreamOf(SI, J);
          const std::size_t F = Start[SI] + J;
          Cur[F] += N * St.InnerStride;
          if (Cnt[F] != Never && (Cnt[F] -= N) == 0) {
            Cur[F] = wrapIdx(Cur[F], St.ModSize);
            Cnt[F] = stepsToWrap(Cur[F], St.InnerStride, St.ModSize);
          }
        }
        MinW[SI] = Never;
        for (std::size_t J = 0; J < 1 + S.Reads.size(); ++J)
          MinW[SI] = std::min(MinW[SI], Cnt[Start[SI] + J]);
      }
      Out.push_back(Ck);
      X += N;
    }
  };

  /// The claimed walker for one row, built purely from the parsed text
  /// facts. \p CB sees each chunk with the cursor arena as of its start;
  /// returning false stops the row. Returns false when the claimed walker
  /// would stop making progress (N <= 0).
  auto ClaimedWalk =
      [&](const std::vector<char> &Adm, std::int64_t RowLo, std::int64_t RowHi,
          const std::function<bool(const Chunk &,
                                   const std::vector<std::int64_t> &)> &CB) {
        std::vector<std::int64_t> Cur(Total, 0), Cnt(Total, Never);
        std::vector<std::int64_t> MinW(NS, Never);
        for (std::size_t SI = 0; SI < NS; ++SI) {
          const RowStmtClaims &SC = C.Stmts[SI];
          if (!Adm[SI] || !SC.Emitted)
            continue;
          for (std::size_t J = 0; J < SC.Streams.size(); ++J) {
            const StreamClaims &S = SC.Streams[J];
            const std::size_t F = Start[SI] + J;
            // Flat indices were verified against Start[] above, so the
            // arena value the emitted code reads is this stream's
            // polyhedral row base.
            Cur[F] = PolyBase(StreamOf(SI, J)) + S.Lo * S.SetupStride;
            if (S.SetupWrap && S.SetupMod > 0)
              Cur[F] = wrapIdx(Cur[F], S.SetupMod);
            if (S.Countdown) {
              const std::int64_t M =
                  S.SetupWrap ? S.SetupMod : (S.WrapAdvance ? S.WrapMod : 0);
              if (M > 0 && S.SetupStride != 0)
                Cnt[F] = stepsToWrap(Cur[F], S.SetupStride, M);
              MinW[SI] = std::min(MinW[SI], Cnt[F]);
            }
          }
        }
        std::int64_t X = RowLo;
        while (X <= RowHi) {
          std::int64_t N = RowHi - X + 1;
          if (C.Cap < Never && N > C.Cap)
            N = C.Cap;
          for (std::size_t SI = 0; SI < NS; ++SI) {
            const RowStmtClaims &SC = C.Stmts[SI];
            if (!Adm[SI] || !SC.Emitted || SC.Hi < X)
              continue;
            if (SC.Lo > X) {
              N = std::min(N, SC.Lo - X);
              continue;
            }
            N = std::min(N, SC.Hi - X + 1);
            if (SC.HasMWClamp)
              N = std::min(N, MinW[SI]);
          }
          if (N <= 0)
            return false;
          Chunk Ck;
          Ck.X = X;
          Ck.N = N;
          for (std::size_t SI = 0; SI < NS; ++SI) {
            const RowStmtClaims &SC = C.Stmts[SI];
            if (Adm[SI] && SC.Emitted && SC.Lo <= X && X <= SC.Hi)
              Ck.Active |= std::uint64_t{1} << SI;
          }
          if (!CB(Ck, Cur))
            return true;
          for (std::size_t SI = 0; SI < NS; ++SI) {
            if (!(Ck.Active >> SI & 1))
              continue;
            const RowStmtClaims &SC = C.Stmts[SI];
            for (std::size_t J = 0; J < SC.Streams.size(); ++J) {
              const StreamClaims &S = SC.Streams[J];
              const std::size_t F = Start[SI] + J;
              if (S.HaveAdvance)
                Cur[F] += N * S.AdvStride;
              if (S.Countdown && Cnt[F] != Never && (Cnt[F] -= N) == 0) {
                const std::int64_t M =
                    S.WrapAdvance ? S.WrapMod : S.SetupMod;
                const std::int64_t St =
                    S.HaveAdvance ? S.AdvStride : S.SetupStride;
                if (M > 0) {
                  Cur[F] = wrapIdx(Cur[F], M);
                  Cnt[F] = St != 0 ? stepsToWrap(Cur[F], St, M) : Never;
                }
              }
            }
            MinW[SI] = Never;
            for (std::size_t J = 0; J < SC.Streams.size(); ++J)
              if (SC.Streams[J].Countdown)
                MinW[SI] = std::min(MinW[SI], Cnt[Start[SI] + J]);
          }
          X += N;
        }
        return true;
      };

  auto Witness = [&](std::int64_t X) {
    std::vector<std::int64_t> P(Iter.begin(), Iter.end());
    P.push_back(X);
    return P;
  };

  // K005: the cap clamp is the one claim whose safety rests on the plan's
  // collision-distance proof; a wider clamp voids that proof outright. The
  // walk below would also notice (as chunk divergence), but the root cause
  // is the cap, so report it as such — with a concrete reordered pair as
  // witness when one exists at this size.
  const std::int64_t TruthCap =
      Plan.MaxSegment < Never ? Plan.MaxSegment : Never;
  if (C.Cap > TruthCap) {
    Diagnostic D =
        Mk(CheckKernelCapWidened,
           "segment cap " + capText(C.Cap) +
               " exceeds the proven collision distance " + capText(TruthCap));
    bool Found = false;
    ForEachRow([&](const std::vector<char> &Adm, std::int64_t RowLo,
                   std::int64_t RowHi) {
      if (--BudgetLeft <= 0)
        return false;
      ClaimedWalk(Adm, RowLo, RowHi, [&](const Chunk &Ck,
                                         const std::vector<std::int64_t> &) {
        for (std::size_t I = 0; I < NS && !Found; ++I) {
          if (!(Ck.Active >> I & 1))
            continue;
          for (std::size_t J = I + 1; J < NS && !Found; ++J) {
            if (!(Ck.Active >> J & 1))
              continue;
            // Stream pairs with a write involved, as in the plan's own
            // collision proof: running statement I's whole chunk before
            // statement J reorders J's access at x1 before I's at x2 for
            // every x1 < x2 within the chunk.
            const exec::RowStmt &A = Plan.Stmts[I];
            const exec::RowStmt &B = Plan.Stmts[J];
            std::vector<std::pair<const exec::RowStream *,
                                  const exec::RowStream *>> Pairs;
            Pairs.emplace_back(&A.Write, &B.Write);
            for (const exec::RowStream &R : B.Reads)
              Pairs.emplace_back(&A.Write, &R);
            for (const exec::RowStream &R : A.Reads)
              Pairs.emplace_back(&R, &B.Write);
            for (const auto &[U, V] : Pairs) {
              if (U->Space != V->Space)
                continue;
              for (std::int64_t X2 = Ck.X + 1;
                   X2 < Ck.X + Ck.N && !Found; ++X2)
                for (std::int64_t X1 = Ck.X; X1 < X2; ++X1) {
                  if (--BudgetLeft <= 0)
                    return false;
                  if (PolyAddr(*V, X1) == PolyAddr(*U, X2)) {
                    D.Point = Witness(X1);
                    D.OtherPoint = Witness(X2);
                    D.Space = static_cast<int>(U->Space);
                    D.Message += "; the widened chunk reorders statement " +
                                 std::to_string(J) + " at x=" +
                                 std::to_string(X1) +
                                 " before statement " + std::to_string(I) +
                                 " at x=" + std::to_string(X2) +
                                 " on a shared location";
                    Found = true;
                    break;
                  }
                }
              if (Found)
                break;
            }
          }
        }
        return !Found && BudgetLeft > 0;
      });
      return !Found && BudgetLeft > 0;
    });
    Diags.add(std::move(D));
    return;
  }

  // K004 + K001: walk every row; chunk sequences must match step for step,
  // and within matching chunks every active statement's addresses must hit
  // the polyhedral footprint. Within one chunk both sides are linear in
  // the element index (the truth walk splits at every wrap), so checking
  // offsets {0, 1, N-1} covers the whole chunk. The first divergence stops
  // the walk — one root cause, one diagnostic.
  bool Stopped = false;
  ForEachRow([&](const std::vector<char> &Adm, std::int64_t RowLo,
                 std::int64_t RowHi) {
    if (--BudgetLeft <= 0) {
      BudgetOut = true;
      return false;
    }
    std::vector<Chunk> TC;
    TruthChunksRow(Adm, RowLo, RowHi, TC);
    std::size_t Idx = 0;
    const bool Progress = ClaimedWalk(
        Adm, RowLo, RowHi,
        [&](const Chunk &Ck, const std::vector<std::int64_t> &Cur) {
          if (Idx >= TC.size() || TC[Idx].X != Ck.X || TC[Idx].N != Ck.N ||
              TC[Idx].Active != Ck.Active) {
            Diagnostic D =
                Mk(CheckKernelChunkDivergence,
                   Idx < TC.size()
                       ? "emitted walker runs a segment of " +
                             std::to_string(Ck.N) + " step(s) at x=" +
                             std::to_string(Ck.X) +
                             "; the interpreted walker splits after " +
                             std::to_string(TC[Idx].N) +
                             " (wrap boundary or activation bound)"
                       : "emitted walker runs a segment at x=" +
                             std::to_string(Ck.X) +
                             " past the interpreted walker's last split");
            D.Point = Witness(Ck.X);
            Diags.add(std::move(D));
            Stopped = true;
            return false;
          }
          ++Idx;
          for (std::size_t SI = 0; SI < NS && !Stopped; ++SI) {
            if (!(Ck.Active >> SI & 1))
              continue;
            const RowStmtClaims &SC = C.Stmts[SI];
            const exec::RowStmt &RS = Plan.Stmts[SI];
            const std::int64_t Offs[3] = {0, 1, Ck.N - 1};
            for (std::size_t JJ = 0; JJ < 1 + RS.Reads.size() && !Stopped;
                 ++JJ) {
              std::int64_t Stride = 0;
              std::string Which;
              if (JJ == 0) {
                Stride = SC.WLhsStride;
                Which = "store";
              } else {
                if (!Used[SI][JJ - 1] || !SC.Body.ReadStrides[JJ - 1])
                  continue;
                Stride = *SC.Body.ReadStrides[JJ - 1];
                Which = "read " + std::to_string(JJ - 1);
              }
              const exec::RowStream &S = StreamOf(SI, JJ);
              for (std::int64_t I : Offs) {
                if (I < 0 || I >= Ck.N)
                  continue;
                if (--BudgetLeft <= 0) {
                  BudgetOut = true;
                  return false;
                }
                const std::int64_t Got = Cur[Start[SI] + JJ] + I * Stride;
                const std::int64_t Want = PolyAddr(S, Ck.X + I);
                if (Got != Want) {
                  Diagnostic D =
                      Mk(CheckKernelFootprint,
                         "statement " + std::to_string(SI) + " " + Which +
                             " hits linear index " + std::to_string(Got) +
                             ", plan footprint is " + std::to_string(Want));
                  D.Space = static_cast<int>(S.Space);
                  D.Point = Witness(Ck.X + I);
                  Diags.add(std::move(D));
                  Stopped = true;
                  break;
                }
              }
            }
          }
          return !Stopped;
        });
    if (!Progress) {
      Diagnostic D = Mk(CheckKernelChunkDivergence,
                        "emitted walker stops making progress (a segment "
                        "clamps to zero length)");
      D.Point = std::vector<std::int64_t>(Iter.begin(), Iter.end());
      Diags.add(std::move(D));
      Stopped = true;
    }
    return !Stopped && !BudgetOut;
  });

  if (BudgetOut && !Stopped) {
    Diagnostic D = Mk(CheckKernelBudget,
                      "symbolic walk abandoned after " +
                          std::to_string(Opts.Budget) +
                          " comparisons; checks completed so far stand");
    D.Sev = Severity::Warning;
    Diags.add(std::move(D));
  }
}

Diagnostics verify::verifyPlanKernels(const exec::ExecutionPlan &Plan,
                                      const codegen::KernelRegistry &Kernels,
                                      const KernelVerifyOptions &Opts) {
  Diagnostics Diags;
  for (std::size_t II = 0; II < Plan.Instrs.size(); ++II) {
    const exec::NestInstr &I = Plan.Instrs[II];
    const exec::RowAnalysis RA = exec::RowPlan::analyze(I, Kernels, nullptr);
    if (!RA.Plan)
      continue; // Scalar path: the engine is never asked.
    KernelVerifyOptions O = Opts;
    O.Instr = static_cast<int>(II);
    KernelVerifier V(I, *RA.Plan, Kernels, O);
    if (const auto Desc = exec::rowKernelDesc(*RA.Plan, I, Kernels))
      V.verifyRowKernel(codegen::printRowKernel(*Desc, "lcdfg_static_row"),
                        Diags);
  }
  return Diags;
}
