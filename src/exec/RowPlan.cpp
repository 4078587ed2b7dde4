//===- exec/RowPlan.cpp - Row-batched instruction execution ---------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "exec/RowPlan.h"

#include "exec/FaultInjector.h"
#include "jit/JitEngine.h"
#include "verify/KernelVerifier.h"

#include <algorithm>
#include <limits>

using namespace lcdfg;
using namespace lcdfg::exec;

namespace {

/// Floored modulo into [0, M).
std::int64_t wrap(std::int64_t V, std::int64_t M) {
  V %= M;
  return V < 0 ? V + M : V;
}

/// Number of inner steps from wrapped index \p W (in [0, M)) until the
/// next modulo wrap with per-step advance \p S != 0. Always >= 1.
std::int64_t stepsToWrap(std::int64_t W, std::int64_t S, std::int64_t M) {
  if (S > 0)
    return (M - W + S - 1) / S;
  return W / -S + 1;
}

RowStream makeRowStream(const Stream &S, const std::vector<LoopLevel> &Outer) {
  RowStream R;
  R.Space = S.Space;
  R.Modulo = S.Modulo;
  R.ModSize = S.ModSize;
  R.InnerStride = S.LevelStrides.back();
  R.Base = S.Base;
  const std::size_t OL = Outer.size();
  R.OuterStrides.assign(S.LevelStrides.begin(), S.LevelStrides.begin() + OL);
  // Fold the outer lower bounds into the base so the odometer's running
  // row base starts at the stream's first row.
  for (std::size_t L = 0; L < OL; ++L)
    R.Base += Outer[L].Lo * R.OuterStrides[L];
  // Carrying into outer level l advances that level by one and resets
  // every deeper outer level to its lower bound.
  R.CarryDelta.assign(OL, 0);
  for (std::size_t L = 0; L < OL; ++L) {
    std::int64_t D = R.OuterStrides[L];
    for (std::size_t K = L + 1; K < OL; ++K)
      D -= (Outer[K].Hi - Outer[K].Lo) * R.OuterStrides[K];
    R.CarryDelta[L] = D;
  }
  return R;
}

bool sameShape(const RowStream &U, const RowStream &V) {
  return U.Modulo == V.Modulo && U.ModSize == V.ModSize &&
         U.InnerStride == V.InnerStride && U.OuterStrides == V.OuterStrides;
}

constexpr std::int64_t Unbounded = std::numeric_limits<std::int64_t>::max();

/// Longest segment over which running statement A (stream \p U) fully
/// before statement B (stream \p V, later in program order) is
/// unobservable relative to the scalar point-interleaved order. The
/// reorder moves B's access at x1 before A's access at x2 for every
/// x1 < x2 in the segment; it misbehaves exactly when such a pair touches
/// the same memory location, so the segment may extend up to the smallest
/// collision distance k = x2 - x1 >= 1.
///
/// With identical strides the pre-wrap index functions differ by the
/// constant C = V.Base - U.Base, and a collision at distance k requires
/// k * S == C exactly (direct storage), so k = C / S when C > 0 and S
/// divides it, and no collision exists otherwise. For modulo storage the
/// walker splits segments at every participating stream's wrap boundary,
/// so within one segment both wrapped indices advance linearly and their
/// phase difference is constant: either c' = C mod M (in [0, M)) or
/// c' - M. A collision needs k * S equal to that difference, which the
/// negative phase can never satisfy; the positive phase gives k = c' / S
/// when S divides c'. Two cases need no cap at all: c' == 0 (B touches
/// exactly what A touched at the same x, and the segment order preserves
/// A-before-B per point), and k at or beyond V's wrap distance in the
/// colliding phase — V starts no lower than c', so it wraps within
/// ceil((M - c') / S) steps and the wrap split already separates the
/// pair. Returns 0 when the pair cannot be reasoned about — the nest
/// then falls back to the scalar path, which remains the semantics of
/// record.
std::int64_t pairCap(const RowStream &U, const RowStream &V) {
  if (U.Space != V.Space)
    return Unbounded;
  if (!sameShape(U, V))
    return 0;
  const std::int64_t S = U.InnerStride;
  const std::int64_t C = V.Base - U.Base;
  if (S < 0)
    return 0; // Layout strides are non-negative; do not reason about
              // reversed rows.
  if (S == 0)
    return C != 0 ? Unbounded : 1;
  if (U.Modulo) {
    const std::int64_t CP = wrap(C, U.ModSize);
    if (CP == 0 || CP % S != 0)
      return Unbounded;
    const std::int64_t K = CP / S;
    if (K >= (U.ModSize - CP + S - 1) / S)
      return Unbounded;
    return K;
  }
  if (C <= 0 || C % S != 0)
    return Unbounded;
  return C / S;
}

/// Streams of \p A that conflict with streams of \p B: every pair with at
/// least one write involved bounds the segment length.
std::int64_t stmtPairCap(const RowStmt &A, const RowStmt &B) {
  std::int64_t Cap = pairCap(A.Write, B.Write);
  for (const RowStream &R : B.Reads)
    Cap = std::min(Cap, pairCap(A.Write, R));
  for (const RowStream &R : A.Reads)
    Cap = std::min(Cap, pairCap(R, B.Write));
  return Cap;
}

} // namespace

std::string_view exec::rowRefusalName(RowRefusal R) {
  switch (R) {
  case RowRefusal::None:
    return "none";
  case RowRefusal::External:
    return "external-task";
  case RowRefusal::NoLoops:
    return "no-loops";
  case RowRefusal::NoStmts:
    return "no-stmts";
  case RowRefusal::NoBatchedKernel:
    return "no-batched-kernel";
  case RowRefusal::UnsafeInterleave:
    return "unsafe-interleave";
  }
  return "unknown";
}

std::string_view exec::jitRefusalName(JitRefusal J) {
  switch (J) {
  case JitRefusal::NotRequested:
    return "not-requested";
  case JitRefusal::Specialized:
    return "specialized";
  case JitRefusal::NoKernelExpr:
    return "no-kernel-expr";
  case JitRefusal::TooManyStmts:
    return "over-64-stmts";
  case JitRefusal::NoInnerSpan:
    return "no-inner-span";
  case JitRefusal::EngineUnavailable:
    return "engine-unavailable";
  case JitRefusal::CompileFailed:
    return "compile-failed";
  case JitRefusal::ValidationRejected:
    return "validation-rejected";
  }
  return "unknown";
}

namespace {

/// Why \p Plan has no fused-row form (Specialized when it has one), with
/// the first offending statement in \p Detail. Checked in the order
/// --report has always named them: expression forms, the admission mask,
/// then whether any row carries work at all.
JitRefusal rowFormRefusal(const RowPlan &Plan, const NestInstr &Instr,
                          const codegen::KernelRegistry &Kernels,
                          std::string &Detail) {
  const std::size_t NS = Plan.Stmts.size();
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const codegen::KernelExpr *E = Kernels.expr(Instr.Stmts[SI].KernelId);
    if (!E || E->maxRead() >= static_cast<int>(Plan.Stmts[SI].Reads.size())) {
      Detail = "kernel " + std::to_string(Instr.Stmts[SI].KernelId) +
               " has no expression form";
      return JitRefusal::NoKernelExpr;
    }
  }
  if (NS > 64) {
    Detail = std::to_string(NS) +
             " statements exceed the row kernel's 64-bit admission mask";
    return JitRefusal::TooManyStmts;
  }
  for (const RowStmt &RS : Plan.Stmts)
    if (RS.InnerLo <= RS.InnerHi)
      return JitRefusal::Specialized;
  return JitRefusal::NoInnerSpan;
}

} // namespace

std::optional<codegen::RowKernelDesc>
exec::rowKernelDesc(const RowPlan &Plan, const NestInstr &Instr,
                    const codegen::KernelRegistry &Kernels) {
  const std::size_t NS = Plan.Stmts.size();
  std::string Detail;
  if (NS == 0 || Instr.Stmts.size() != NS ||
      rowFormRefusal(Plan, Instr, Kernels, Detail) != JitRefusal::Specialized)
    return std::nullopt;
  codegen::RowKernelDesc Desc;
  Desc.MaxSegment = Plan.MaxSegment;
  Desc.Stmts.reserve(NS);
  std::size_t Flat = 0;
  for (std::size_t SI = 0; SI < NS; ++SI) {
    const RowStmt &RS = Plan.Stmts[SI];
    codegen::RowKernelDesc::Stmt DS;
    DS.Body = Kernels.expr(Instr.Stmts[SI].KernelId);
    DS.Lo = RS.InnerLo;
    DS.Hi = RS.InnerHi;
    auto ToStream = [&Flat](const RowStream &S, bool AliasesWrite) {
      codegen::RowKernelDesc::Stream D;
      D.Space = S.Space;
      D.Modulo = S.Modulo;
      D.ModSize = S.ModSize;
      D.InnerStride = S.InnerStride;
      D.Flat = Flat++;
      D.AliasesWrite = AliasesWrite;
      return D;
    };
    DS.Write = ToStream(RS.Write, false);
    DS.Reads.reserve(RS.Reads.size());
    for (const RowStream &R : RS.Reads)
      DS.Reads.push_back(ToStream(R, R.Space == RS.Write.Space));
    Desc.Stmts.push_back(std::move(DS));
  }
  return Desc;
}

RowAnalysis RowPlan::analyze(const NestInstr &Instr,
                             const codegen::KernelRegistry &Kernels,
                             jit::Engine *Jit) {
  auto Refuse = [](RowRefusal Why) {
    RowAnalysis A;
    A.Refusal = Why;
    return A;
  };
  if (Instr.External)
    return Refuse(RowRefusal::External);
  if (Instr.Loops.empty())
    return Refuse(RowRefusal::NoLoops);
  if (Instr.Stmts.empty())
    return Refuse(RowRefusal::NoStmts);
  const unsigned Inner = static_cast<unsigned>(Instr.Loops.size()) - 1;

  RowPlan RP;
  RP.Outer.assign(Instr.Loops.begin(), Instr.Loops.end() - 1);
  for (const StmtRecord &S : Instr.Stmts) {
    codegen::BatchedKernel Body = Kernels.batched(S.KernelId);
    if (!Body)
      return Refuse(RowRefusal::NoBatchedKernel);
    RowStmt RS;
    RS.Body = Body;
    RS.InnerLo = Instr.Loops[Inner].Lo;
    RS.InnerHi = Instr.Loops[Inner].Hi;
    for (const GuardBound &Gd : S.Guards) {
      if (Gd.Level == Inner) {
        RS.InnerLo = std::max(RS.InnerLo, Gd.Lo);
        RS.InnerHi = std::min(RS.InnerHi, Gd.Hi);
      } else {
        RS.RowGuards.push_back(Gd);
      }
    }
    RS.Write = makeRowStream(S.Write, RP.Outer);
    RS.Reads.reserve(S.Reads.size());
    for (const Stream &R : S.Reads)
      RS.Reads.push_back(makeRowStream(R, RP.Outer));
    RP.Stmts.push_back(std::move(RS));
  }

  // Fused statement sets: running record I fully before record J over a
  // segment must be unobservable for every I < J pair. Conflicting pairs
  // with a finite collision distance cap the segment length instead of
  // rejecting the nest; a cap of 1 degenerates to scalar execution with
  // extra bookkeeping, so fall back outright.
  for (std::size_t I = 0; I + 1 < RP.Stmts.size(); ++I)
    for (std::size_t J = I + 1; J < RP.Stmts.size(); ++J)
      RP.MaxSegment = std::min(RP.MaxSegment,
                               stmtPairCap(RP.Stmts[I], RP.Stmts[J]));
  if (RP.MaxSegment <= 1)
    return Refuse(RowRefusal::UnsafeInterleave);

  RowAnalysis A;
  A.Plan = std::move(RP);
  if (!Jit)
    return A;

  // JIT specialization: the whole instruction becomes one fused row
  // walker (codegen::printRowKernel) — RowPlan::run's segment walker with
  // the bounds, strides, modulo sizes and the conflict cap folded to
  // constants, so it chunks and interleaves exactly as the interpreted
  // walk does and the MaxSegment proof above carries over verbatim.
  // Strictly best-effort and all-or-nothing: any refusal keeps every
  // statement on its interpreted batched body and the plan stays engaged
  // (the recovery ladder reports real failures as L008, but execution
  // itself never fails here).
  A.Jit = rowFormRefusal(*A.Plan, Instr, Kernels, A.JitDetail);
  if (A.Jit != JitRefusal::Specialized)
    return A;
  const std::optional<codegen::RowKernelDesc> Desc =
      rowKernelDesc(*A.Plan, Instr, Kernels);
  // Translation validation gate: the engine is never handed an emission
  // the static verifier cannot prove faithful to the plan. The jitval
  // fault site forces a rejection so CI can exercise this path without
  // needing a genuinely broken emission.
  auto KeepInterpreted = [&A](JitRefusal Why, std::string Detail) {
    A.Jit = Why;
    A.JitDetail = std::move(Detail);
  };
  if (FaultInjector::global().shouldFire(FaultSite::JitValidate)) {
    KeepInterpreted(JitRefusal::ValidationRejected,
                    "row kernel: fault-injected validation rejection");
    return A;
  }
  verify::KernelVerifyOptions VO;
  VO.Budget = std::int64_t{1} << 15;
  verify::KernelVerifier KV(Instr, *A.Plan, Kernels, VO);
  verify::Diagnostics VD;
  KV.verifyRowKernel(codegen::printRowKernel(*Desc, "lcdfg_static_row"), VD);
  if (VD.hasErrors()) {
    KeepInterpreted(JitRefusal::ValidationRejected,
                    "row kernel: " + VD.all().front().toString());
    return A;
  }
  auto RK = Jit->rowKernel(*Desc);
  if (!RK) {
    const bool Dead = RK.error().code() == support::ErrorCode::JitUnavailable &&
                      !Jit->available();
    KeepInterpreted(Dead ? JitRefusal::EngineUnavailable
                         : JitRefusal::CompileFailed,
                    RK.error().message());
    return A;
  }
  A.Plan->Row = *RK;
  A.JitStmts = static_cast<int>(A.Plan->Stmts.size());
  return A;
}

void RowPlan::run(double *const *Spaces, std::int64_t &Points,
                  std::int64_t &RawReads, RowRunCounters *Counters) const {
  const std::size_t OL = Outer.size();
  for (std::size_t L = 0; L < OL; ++L)
    if (Outer[L].Lo > Outer[L].Hi)
      return;

  // Mutable cursor state, all on this stack frame so one compiled plan can
  // run on many workers at once. Streams are laid out in one flat arena
  // (per statement: write first, then reads). PreBase is the running
  // pre-wrap row base; Cur is the walking index (wrapped for modulo
  // streams); WrapLeft counts inner steps until the stream's next modulo
  // wrap, so the segment walk pays a division only at row setup and on
  // actual wrap events, never per segment.
  constexpr std::int64_t Never = std::int64_t{1} << 62;
  const std::size_t NS = Stmts.size();
  std::vector<std::size_t> Start(NS + 1);
  for (std::size_t SI = 0; SI < NS; ++SI)
    Start[SI + 1] = Start[SI] + 1 + Stmts[SI].Reads.size();
  std::vector<std::int64_t> PreBase(Start[NS]), Cur(Start[NS]),
      WrapLeft(Start[NS]);
  std::vector<std::int64_t> MinWrap(NS);
  std::vector<char> Admitted(NS);
  std::size_t MaxReads = 0;
  for (std::size_t SI = 0; SI < NS; ++SI) {
    PreBase[Start[SI]] = Stmts[SI].Write.Base;
    for (std::size_t R = 0; R < Stmts[SI].Reads.size(); ++R)
      PreBase[Start[SI] + 1 + R] = Stmts[SI].Reads[R].Base;
    MaxReads = std::max(MaxReads, Stmts[SI].Reads.size());
  }
  std::vector<const double *> ReadPtrs(MaxReads);
  std::vector<std::int64_t> ReadStrides(MaxReads);
  std::vector<std::int64_t> Iter(OL);
  for (std::size_t L = 0; L < OL; ++L)
    Iter[L] = Outer[L].Lo;

  // Positions one stream cursor at the statement's InnerLo and resets its
  // wrap countdown.
  auto resolveStream = [&](const RowStream &S, std::int64_t InnerLo,
                           std::size_t F) {
    Cur[F] = PreBase[F] + InnerLo * S.InnerStride;
    WrapLeft[F] = Never;
    if (S.Modulo) {
      Cur[F] = wrap(Cur[F], S.ModSize);
      if (S.InnerStride != 0)
        WrapLeft[F] = stepsToWrap(Cur[F], S.InnerStride, S.ModSize);
    }
  };
  // Advances one stream cursor by N inner steps, wrapping when the
  // countdown expires (the walker never lets a segment cross a wrap, so
  // the countdown reaches exactly zero).
  std::int64_t WrapEvents = 0, Segments = 0;
  auto advanceStream = [&](const RowStream &S, std::int64_t N,
                           std::size_t F) {
    Cur[F] += N * S.InnerStride;
    if ((WrapLeft[F] -= N) == 0) {
      Cur[F] = wrap(Cur[F], S.ModSize);
      WrapLeft[F] = stepsToWrap(Cur[F], S.InnerStride, S.ModSize);
      ++WrapEvents;
    }
  };

  std::int64_t P = 0, RR = 0;
  for (;;) {
    if (Row) {
      // Fused row path: guard admission and the row bounds are the only
      // interpreted work — cursor resolution, wrap countdowns and the
      // segment walk all live in the compiled row kernel, which reads the
      // pre-wrap base arena directly (same Start[] layout as the streams
      // above).
      std::uint64_t Admit = 0;
      std::int64_t RowLo = 0, RowHi = -1;
      for (std::size_t SI = 0; SI < NS; ++SI) {
        const RowStmt &S = Stmts[SI];
        if (S.InnerLo > S.InnerHi)
          continue;
        bool Ok = true;
        for (const GuardBound &Gd : S.RowGuards)
          if (Iter[Gd.Level] < Gd.Lo || Iter[Gd.Level] > Gd.Hi) {
            Ok = false;
            break;
          }
        if (!Ok)
          continue;
        if (!Admit || S.InnerLo < RowLo)
          RowLo = S.InnerLo;
        if (!Admit || S.InnerHi > RowHi)
          RowHi = S.InnerHi;
        Admit |= std::uint64_t{1} << SI;
        const std::int64_t Span = S.InnerHi - S.InnerLo + 1;
        P += Span;
        RR += Span * static_cast<std::int64_t>(S.Reads.size());
      }
      if (Admit) {
        std::int64_t RC[2] = {0, 0};
        Row(Spaces, PreBase.data(), Admit, RowLo, RowHi, RC);
        Segments += RC[0];
        WrapEvents += RC[1];
      }
    } else {
      // Resolve this row: guard admission, per-stream start indices and
      // wrap countdowns.
      std::int64_t RowLo = 0, RowHi = -1;
      bool Any = false;
      for (std::size_t SI = 0; SI < NS; ++SI) {
        const RowStmt &S = Stmts[SI];
        Admitted[SI] = S.InnerLo <= S.InnerHi;
        for (const GuardBound &Gd : S.RowGuards)
          if (Iter[Gd.Level] < Gd.Lo || Iter[Gd.Level] > Gd.Hi) {
            Admitted[SI] = 0;
            break;
          }
        if (!Admitted[SI])
          continue;
        resolveStream(S.Write, S.InnerLo, Start[SI]);
        MinWrap[SI] = WrapLeft[Start[SI]];
        for (std::size_t R = 0; R < S.Reads.size(); ++R) {
          resolveStream(S.Reads[R], S.InnerLo, Start[SI] + 1 + R);
          MinWrap[SI] = std::min(MinWrap[SI], WrapLeft[Start[SI] + 1 + R]);
        }
        if (!Any || S.InnerLo < RowLo)
          RowLo = S.InnerLo;
        if (!Any || S.InnerHi > RowHi)
          RowHi = S.InnerHi;
        Any = true;
      }

      // Walk the row in segments bounded by every admitted statement's
      // activation boundaries, every modulo stream's wrap countdown, and
      // the conflict cap.
      std::int64_t X = RowLo;
      while (Any && X <= RowHi) {
        std::int64_t N = std::min(RowHi - X + 1, MaxSegment);
        for (std::size_t SI = 0; SI < NS; ++SI) {
          const RowStmt &S = Stmts[SI];
          if (!Admitted[SI] || S.InnerHi < X)
            continue;
          if (S.InnerLo > X) {
            N = std::min(N, S.InnerLo - X);
            continue;
          }
          N = std::min(N, std::min(S.InnerHi - X + 1, MinWrap[SI]));
        }
        for (std::size_t SI = 0; SI < NS; ++SI) {
          const RowStmt &S = Stmts[SI];
          if (!Admitted[SI] || S.InnerLo > X || S.InnerHi < X)
            continue;
          double *W = Spaces[S.Write.Space] + Cur[Start[SI]];
          for (std::size_t R = 0; R < S.Reads.size(); ++R) {
            ReadPtrs[R] = Spaces[S.Reads[R].Space] + Cur[Start[SI] + 1 + R];
            ReadStrides[R] = S.Reads[R].InnerStride;
          }
          S.Body(W, ReadPtrs.data(), ReadStrides.data(), S.Write.InnerStride,
                 N);
          ++Segments;
          advanceStream(S.Write, N, Start[SI]);
          MinWrap[SI] = WrapLeft[Start[SI]];
          for (std::size_t R = 0; R < S.Reads.size(); ++R) {
            advanceStream(S.Reads[R], N, Start[SI] + 1 + R);
            MinWrap[SI] = std::min(MinWrap[SI], WrapLeft[Start[SI] + 1 + R]);
          }
          P += N;
          RR += N * static_cast<std::int64_t>(S.Reads.size());
        }
        X += N;
      }
    }

    // Odometer over the outer levels; the successful carry level's delta
    // accounts for every deeper level's reset.
    std::size_t L = OL;
    while (L > 0) {
      --L;
      if (++Iter[L] <= Outer[L].Hi) {
        for (std::size_t SI = 0; SI < NS; ++SI) {
          const RowStmt &S = Stmts[SI];
          PreBase[Start[SI]] += S.Write.CarryDelta[L];
          for (std::size_t R = 0; R < S.Reads.size(); ++R)
            PreBase[Start[SI] + 1 + R] += S.Reads[R].CarryDelta[L];
        }
        break;
      }
      Iter[L] = Outer[L].Lo;
      if (L == 0) {
        Points += P;
        RawReads += RR;
        if (Counters) {
          Counters->Segments += Segments;
          Counters->Wraps += WrapEvents;
        }
        return;
      }
    }
    if (OL == 0)
      break;
  }
  Points += P;
  RawReads += RR;
  if (Counters) {
    Counters->Segments += Segments;
    Counters->Wraps += WrapEvents;
  }
}
