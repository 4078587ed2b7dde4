//===- minifluxdiv/Variants.cpp -------------------------------------------===//

#include "minifluxdiv/Variants.h"

#include "exec/ExecutionPlan.h"
#include "exec/PlanRunner.h"
#include "minifluxdiv/FaceOps.h"
#include "minifluxdiv/Spec.h"
#include "support/Errors.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace lcdfg;
using namespace lcdfg::mfd;
using rt::Box;

namespace {

constexpr const int *VelComp = VelOfDir;

//===----------------------------------------------------------------------===//
// Series of loops (Figure 3)
//===----------------------------------------------------------------------===//

void seriesBox(const Box &In, Box &Out, bool SingleAssignment) {
  int N = In.size();
  Out.copyInteriorFrom(In);

  // Storage-reduced: one F1 and one F2 buffer set reused across the three
  // directions (ten slots). Single-assignment: distinct slots per
  // direction, so all thirty value sets are resident (the SSA footprint of
  // Figure 3).
  for (int Dir = 0; Dir < 3; ++Dir) {
    unsigned Base = SingleAssignment ? 2u * NumComps * Dir : 0u;
    for (int C = 0; C < NumComps; ++C) {
      Buf3 &F1 = scratchBuf(Base + C);
      resizeFaceBuf(F1, Dir, 0, 0, 0, N, N, N);
      computeF1(In, C, Dir, F1);
    }
    for (int C = 0; C < NumComps; ++C)
      computeF2(scratchBuf(Base + C), scratchBuf(Base + VelComp[Dir]),
                scratchBuf(Base + NumComps + C));
    for (int C = 0; C < NumComps; ++C)
      accumulateDiff(Out, C, Dir, scratchBuf(Base + NumComps + C), 0, N, 0,
                     N, 0, N);
  }
}

//===----------------------------------------------------------------------===//
// Fuse among directions (Figure 7)
//===----------------------------------------------------------------------===//

void fuseAmongBox(const Box &In, Box &Out) {
  int N = In.size();
  Out.copyInteriorFrom(In);

  // All fifteen F1 arrays with every input streamed once (read-reduction
  // fusion of Fx1/Fy1/Fz1 per component), then the fifteen F2 arrays, then
  // one output-locality-friendly difference sweep. The interior is
  // branch-free; the extra face planes are separate epilogue loops.
  auto F1 = [](int Dir, int C) -> Buf3 & {
    return scratchBuf(Dir * NumComps + C);
  };
  auto F2 = [](int Dir, int C) -> Buf3 & {
    return scratchBuf(3 * NumComps + Dir * NumComps + C);
  };
  for (int Dir = 0; Dir < 3; ++Dir)
    for (int C = 0; C < NumComps; ++C) {
      resizeFaceBuf(F1(Dir, C), Dir, 0, 0, 0, N, N, N);
      resizeFaceBuf(F2(Dir, C), Dir, 0, 0, 0, N, N, N);
    }

  const std::int64_t SZ = In.strideZ(), SY = In.strideY();
  for (int C = 0; C < NumComps; ++C) {
    Buf3 &FX = F1(DirX, C), &FY = F1(DirY, C), &FZ = F1(DirZ, C);
    const double *Base = In.origin(C);
    for (int Z = 0; Z < N; ++Z) {
      for (int Y = 0; Y < N; ++Y) {
        const double *P = Base + Z * SZ + Y * SY;
        for (int X = 0; X < N; ++X) {
          FX.at(Z, Y, X) = f1At(P + X, 1);
          FY.at(Z, Y, X) = f1At(P + X, SY);
          FZ.at(Z, Y, X) = f1At(P + X, SZ);
        }
        FX.at(Z, Y, N) = f1At(P + N, 1);
      }
      const double *PY = Base + Z * SZ + static_cast<std::int64_t>(N) * SY;
      for (int X = 0; X < N; ++X)
        FY.at(Z, N, X) = f1At(PY + X, SY);
    }
    for (int Y = 0; Y < N; ++Y) {
      const double *PZ = Base + static_cast<std::int64_t>(N) * SZ + Y * SY;
      for (int X = 0; X < N; ++X)
        FZ.at(N, Y, X) = f1At(PZ + X, SZ);
    }
  }

  for (int Dir = 0; Dir < 3; ++Dir)
    for (int C = 0; C < NumComps; ++C)
      computeF2(F1(Dir, C), F1(Dir, VelComp[Dir]), F2(Dir, C));

  for (int C = 0; C < NumComps; ++C) {
    const Buf3 &FX = F2(DirX, C), &FY = F2(DirY, C), &FZ = F2(DirZ, C);
    for (int Z = 0; Z < N; ++Z)
      for (int Y = 0; Y < N; ++Y) {
        const double *RX = &FX.at(Z, Y, 0);
        const double *RY0 = &FY.at(Z, Y, 0), *RY1 = &FY.at(Z, Y + 1, 0);
        const double *RZ0 = &FZ.at(Z, Y, 0), *RZ1 = &FZ.at(Z + 1, Y, 0);
        double *OutRow = &Out.at(C, Z, Y, 0);
        for (int X = 0; X < N; ++X)
          OutRow[X] += DiffScale * ((RX[X + 1] - RX[X]) +
                                    (RY1[X] - RY0[X]) + (RZ1[X] - RZ0[X]));
      }
  }
}

//===----------------------------------------------------------------------===//
// Fuse within directions (Figure 8)
//===----------------------------------------------------------------------===//

/// One direction's fused F1+F2+D sweep over the cell region
/// [z0,z1) x [y0,y1) x [x0,x1). The velocity face flux \p Vel must already
/// cover the region's faces. Reduced storage: carries sized by the reuse
/// distance (a scalar for x, a line for y, a plane for z), with the
/// trailing-face prologues hoisted out of the steady-state loops.
void fusedDirectionSweep(const Box &In, Box &Out, int Dir, const Buf3 &Vel,
                         int Z0, int Z1, int Y0, int Y1, int X0, int X1,
                         Buf3 &Carry) {
  const std::int64_t SZ = In.strideZ(), SY = In.strideY();

  if (Dir == DirX) {
    for (int Z = Z0; Z < Z1; ++Z)
      for (int Y = Y0; Y < Y1; ++Y)
        for (int C = 0; C < NumComps; ++C) {
          const double *P = In.origin(C) + Z * SZ + Y * SY;
          const double *VRow = &Vel.at(Z, Y, X0) - X0;
          double *OutRow = &Out.at(C, Z, Y, X0) - X0;
          double Prev = f1At(P + X0, 1) * VRow[X0];
          for (int X = X0; X < X1; ++X) {
            double Next = f1At(P + X + 1, 1) * VRow[X + 1];
            OutRow[X] += DiffScale * (Next - Prev);
            Prev = Next;
          }
        }
    return;
  }

  if (Dir == DirY) {
    // Carry line indexed (component, x), contiguous in x.
    Carry.resize(0, 0, X0, 1, NumComps, X1 - X0);
    for (int Z = Z0; Z < Z1; ++Z) {
      for (int C = 0; C < NumComps; ++C) {
        const double *P = In.origin(C) + Z * SZ + Y0 * SY;
        const double *VRow = &Vel.at(Z, Y0, X0) - X0;
        double *CRow = &Carry.at(0, C, X0) - X0;
        for (int X = X0; X < X1; ++X)
          CRow[X] = f1At(P + X, SY) * VRow[X];
      }
      for (int Y = Y0; Y < Y1; ++Y)
        for (int C = 0; C < NumComps; ++C) {
          const double *P = In.origin(C) + Z * SZ + (Y + 1) * SY;
          const double *VRow = &Vel.at(Z, Y + 1, X0) - X0;
          double *OutRow = &Out.at(C, Z, Y, X0) - X0;
          double *CRow = &Carry.at(0, C, X0) - X0;
          for (int X = X0; X < X1; ++X) {
            double Next = f1At(P + X, SY) * VRow[X];
            OutRow[X] += DiffScale * (Next - CRow[X]);
            CRow[X] = Next;
          }
        }
    }
    return;
  }

  // DirZ: carry plane indexed (y, component, x).
  Carry.resize(Y0, 0, X0, Y1 - Y0, NumComps, X1 - X0);
  for (int Y = Y0; Y < Y1; ++Y)
    for (int C = 0; C < NumComps; ++C) {
      const double *P = In.origin(C) + Z0 * SZ + Y * SY;
      const double *VRow = &Vel.at(Z0, Y, X0) - X0;
      double *CRow = &Carry.at(Y, C, X0) - X0;
      for (int X = X0; X < X1; ++X)
        CRow[X] = f1At(P + X, SZ) * VRow[X];
    }
  for (int Z = Z0; Z < Z1; ++Z)
    for (int Y = Y0; Y < Y1; ++Y)
      for (int C = 0; C < NumComps; ++C) {
        const double *P = In.origin(C) + (Z + 1) * SZ + Y * SY;
        const double *VRow = &Vel.at(Z + 1, Y, X0) - X0;
        double *OutRow = &Out.at(C, Z, Y, X0) - X0;
        double *CRow = &Carry.at(Y, C, X0) - X0;
        for (int X = X0; X < X1; ++X) {
          double Next = f1At(P + X, SZ) * VRow[X];
          OutRow[X] += DiffScale * (Next - CRow[X]);
          CRow[X] = Next;
        }
      }
}

/// Single-assignment flavor: the same fused iteration order as the
/// reduced sweep, but every F1/F2 value set is materialized in full
/// (scratch slots \p SlotBase .. \p SlotBase + 2*NumComps - 1).
void fusedDirectionSweepSA(const Box &In, Box &Out, int Dir, const Buf3 &Vel,
                           unsigned SlotBase) {
  int N = In.size();
  const std::int64_t SZ = In.strideZ(), SY = In.strideY();
  auto F1 = [&](int C) -> Buf3 & { return scratchBuf(SlotBase + C); };
  auto F2 = [&](int C) -> Buf3 & {
    return scratchBuf(SlotBase + NumComps + C);
  };
  for (int C = 0; C < NumComps; ++C) {
    resizeFaceBuf(F1(C), Dir, 0, 0, 0, N, N, N);
    resizeFaceBuf(F2(C), Dir, 0, 0, 0, N, N, N);
  }

  if (Dir == DirX) {
    for (int Z = 0; Z < N; ++Z)
      for (int Y = 0; Y < N; ++Y)
        for (int C = 0; C < NumComps; ++C) {
          const double *P = In.origin(C) + Z * SZ + Y * SY;
          const double *VRow = &Vel.at(Z, Y, 0);
          double *F1Row = &F1(C).at(Z, Y, 0);
          double *F2Row = &F2(C).at(Z, Y, 0);
          double *OutRow = &Out.at(C, Z, Y, 0);
          F1Row[0] = f1At(P, 1);
          F2Row[0] = F1Row[0] * VRow[0];
          for (int X = 0; X < N; ++X) {
            double F = f1At(P + X + 1, 1);
            F1Row[X + 1] = F;
            double G = F * VRow[X + 1];
            F2Row[X + 1] = G;
            OutRow[X] += DiffScale * (G - F2Row[X]);
          }
        }
    return;
  }

  if (Dir == DirY) {
    for (int Z = 0; Z < N; ++Z) {
      for (int C = 0; C < NumComps; ++C) {
        const double *P = In.origin(C) + Z * SZ;
        const double *VRow = &Vel.at(Z, 0, 0);
        double *F1Row = &F1(C).at(Z, 0, 0);
        double *F2Row = &F2(C).at(Z, 0, 0);
        for (int X = 0; X < N; ++X) {
          F1Row[X] = f1At(P + X, SY);
          F2Row[X] = F1Row[X] * VRow[X];
        }
      }
      for (int Y = 0; Y < N; ++Y)
        for (int C = 0; C < NumComps; ++C) {
          const double *P = In.origin(C) + Z * SZ + (Y + 1) * SY;
          const double *VRow = &Vel.at(Z, Y + 1, 0);
          double *F1Row = &F1(C).at(Z, Y + 1, 0);
          double *F2Row = &F2(C).at(Z, Y + 1, 0);
          const double *F2Prev = &F2(C).at(Z, Y, 0);
          double *OutRow = &Out.at(C, Z, Y, 0);
          for (int X = 0; X < N; ++X) {
            F1Row[X] = f1At(P + X, SY);
            double G = F1Row[X] * VRow[X];
            F2Row[X] = G;
            OutRow[X] += DiffScale * (G - F2Prev[X]);
          }
        }
    }
    return;
  }

  // DirZ.
  for (int Y = 0; Y < N; ++Y)
    for (int C = 0; C < NumComps; ++C) {
      const double *P = In.origin(C) + Y * SY;
      const double *VRow = &Vel.at(0, Y, 0);
      double *F1Row = &F1(C).at(0, Y, 0);
      double *F2Row = &F2(C).at(0, Y, 0);
      for (int X = 0; X < N; ++X) {
        F1Row[X] = f1At(P + X, SZ);
        F2Row[X] = F1Row[X] * VRow[X];
      }
    }
  for (int Z = 0; Z < N; ++Z)
    for (int Y = 0; Y < N; ++Y)
      for (int C = 0; C < NumComps; ++C) {
        const double *P = In.origin(C) + (Z + 1) * SZ + Y * SY;
        const double *VRow = &Vel.at(Z + 1, Y, 0);
        double *F1Row = &F1(C).at(Z + 1, Y, 0);
        double *F2Row = &F2(C).at(Z + 1, Y, 0);
        const double *F2Prev = &F2(C).at(Z, Y, 0);
        double *OutRow = &Out.at(C, Z, Y, 0);
        for (int X = 0; X < N; ++X) {
          F1Row[X] = f1At(P + X, SZ);
          double G = F1Row[X] * VRow[X];
          F2Row[X] = G;
          OutRow[X] += DiffScale * (G - F2Prev[X]);
        }
      }
}

void fuseWithinBox(const Box &In, Box &Out, bool SingleAssignment) {
  int N = In.size();
  Out.copyInteriorFrom(In);
  for (int Dir = 0; Dir < 3; ++Dir) {
    Buf3 &Vel = scratchBuf(30);
    resizeFaceBuf(Vel, Dir, 0, 0, 0, N, N, N);
    computeF1(In, VelComp[Dir], Dir, Vel);
    if (SingleAssignment) {
      fusedDirectionSweepSA(In, Out, Dir, Vel, 2u * NumComps * Dir);
    } else {
      fusedDirectionSweep(In, Out, Dir, Vel, 0, N, 0, N, 0, N,
                          scratchBuf(33));
    }
  }
}

//===----------------------------------------------------------------------===//
// Fuse all levels (Figure 9)
//===----------------------------------------------------------------------===//

/// The fully fused sweep over the cell region, all directions at once.
/// Velocity face fluxes must cover the region's faces; carries hold the
/// trailing x face (a register), y face (line), and z face (plane), with
/// all prologues hoisted so the steady-state inner loop is branch-free.
void fuseAllSweep(const Box &In, Box &Out, const Buf3 &U, const Buf3 &V,
                  const Buf3 &W, int Z0, int Z1, int Y0, int Y1, int X0,
                  int X1, Buf3 &CarryY, Buf3 &CarryZ) {
  const std::int64_t SZ = In.strideZ(), SY = In.strideY();
  // Carries indexed (row..., component, x): contiguous in x per sweep.
  CarryY.resize(0, 0, X0, 1, NumComps, X1 - X0);
  CarryZ.resize(Y0, 0, X0, Y1 - Y0, NumComps, X1 - X0);

  // Prologue: the trailing z faces of the whole region.
  for (int Y = Y0; Y < Y1; ++Y)
    for (int C = 0; C < NumComps; ++C) {
      const double *P = In.origin(C) + Z0 * SZ + Y * SY;
      for (int X = X0; X < X1; ++X)
        CarryZ.at(Y, C, X) = f1At(P + X, SZ) * W.at(Z0, Y, X);
    }

  for (int Z = Z0; Z < Z1; ++Z) {
    // Prologue: the trailing y faces of this plane.
    for (int C = 0; C < NumComps; ++C) {
      const double *P = In.origin(C) + Z * SZ + Y0 * SY;
      for (int X = X0; X < X1; ++X)
        CarryY.at(0, C, X) = f1At(P + X, SY) * V.at(Z, Y0, X);
    }
    for (int Y = Y0; Y < Y1; ++Y)
      for (int C = 0; C < NumComps; ++C) {
        const double *P = In.origin(C) + Z * SZ + Y * SY;
        const double *URow = &U.at(Z, Y, X0) - X0;
        const double *VRow = &V.at(Z, Y + 1, X0) - X0;
        const double *WRow = &W.at(Z + 1, Y, X0) - X0;
        double *OutRow = &Out.at(C, Z, Y, X0) - X0;
        double *YRow = &CarryY.at(0, C, X0) - X0;
        double *ZRow = &CarryZ.at(Y, C, X0) - X0;
        double PrevX = f1At(P + X0, 1) * URow[X0];
        for (int X = X0; X < X1; ++X) {
          double NX = f1At(P + X + 1, 1) * URow[X + 1];
          double NY = f1At(P + X + SY, SY) * VRow[X];
          double NZ = f1At(P + X + SZ, SZ) * WRow[X];
          OutRow[X] += DiffScale *
                       ((NX - PrevX) + (NY - YRow[X]) + (NZ - ZRow[X]));
          PrevX = NX;
          YRow[X] = NY;
          ZRow[X] = NZ;
        }
      }
  }
}

void fuseAllBox(const Box &In, Box &Out, bool SingleAssignment) {
  int N = In.size();
  Out.copyInteriorFrom(In);
  Buf3 &U = scratchBuf(30), &V = scratchBuf(31), &W = scratchBuf(32);
  resizeFaceBuf(U, DirX, 0, 0, 0, N, N, N);
  resizeFaceBuf(V, DirY, 0, 0, 0, N, N, N);
  resizeFaceBuf(W, DirZ, 0, 0, 0, N, N, N);
  computeF1(In, CompU, DirX, U);
  computeF1(In, CompV, DirY, V);
  computeF1(In, CompW, DirZ, W);

  if (!SingleAssignment) {
    fuseAllSweep(In, Out, U, V, W, 0, N, 0, N, 0, N, scratchBuf(33),
                 scratchBuf(34));
    return;
  }

  // Single-assignment: the same fused iteration order, but every F1/F2
  // value set is materialized in full.
  auto Slot = [](int Stage, int Dir, int C) -> Buf3 & {
    return scratchBuf(Stage * 3 * NumComps + Dir * NumComps + C);
  };
  std::vector<std::vector<Buf3 *>> F1(3), F2(3);
  for (int Dir = 0; Dir < 3; ++Dir)
    for (int C = 0; C < NumComps; ++C) {
      F1[Dir].push_back(&Slot(0, Dir, C));
      F2[Dir].push_back(&Slot(1, Dir, C));
      resizeFaceBuf(*F1[Dir][C], Dir, 0, 0, 0, N, N, N);
      resizeFaceBuf(*F2[Dir][C], Dir, 0, 0, 0, N, N, N);
    }
  const std::int64_t SZ = In.strideZ(), SY = In.strideY();
  const Buf3 *Vels[3] = {&U, &V, &W};
  for (int Z = 0; Z < N; ++Z)
    for (int Y = 0; Y < N; ++Y)
      for (int X = 0; X < N; ++X)
        for (int C = 0; C < NumComps; ++C) {
          const double *P = In.origin(C) + Z * SZ + Y * SY + X;
          int Cell[3] = {Z, Y, X};
          double Diff = 0.0;
          for (int Dir = 0; Dir < 3; ++Dir) {
            const std::int64_t FS = Dir == DirX ? 1
                                    : Dir == DirY ? SY
                                                  : SZ;
            int DZ = Dir == DirZ, DY = Dir == DirY, DX = Dir == DirX;
            bool Leading = Cell[2 - Dir] == 0;
            if (Leading) {
              F1[Dir][C]->at(Z, Y, X) = f1At(P, FS);
              F2[Dir][C]->at(Z, Y, X) =
                  F1[Dir][C]->at(Z, Y, X) * Vels[Dir]->at(Z, Y, X);
            }
            F1[Dir][C]->at(Z + DZ, Y + DY, X + DX) = f1At(P + FS, FS);
            F2[Dir][C]->at(Z + DZ, Y + DY, X + DX) =
                F1[Dir][C]->at(Z + DZ, Y + DY, X + DX) *
                Vels[Dir]->at(Z + DZ, Y + DY, X + DX);
            Diff += F2[Dir][C]->at(Z + DZ, Y + DY, X + DX) -
                    F2[Dir][C]->at(Z, Y, X);
          }
          Out.at(C, Z, Y, X) += DiffScale * Diff;
        }
}

//===----------------------------------------------------------------------===//
// Overlapped tiling (Section 4.3, Figure 5)
//===----------------------------------------------------------------------===//

int defaultTileSize(int N) { return N >= 32 ? 8 : 4; }

/// Fusion within tiles (Figure 5f): each (z, y) tile runs the fully fused
/// schedule with tile-local velocity face fluxes and reuse-distance
/// carries. Adjacent tiles recompute shared faces — the overlap. With
/// \p Threads > 1 the independent tiles run in parallel (the within-box
/// parallelization of Section 5.5).
void overlapWithinTilesBox(const Box &In, Box &Out, int TileSize,
                           int Threads) {
  int N = In.size();
  int T = TileSize > 0 ? TileSize : defaultTileSize(N);
  Out.copyInteriorFrom(In);
  int TilesZ = (N + T - 1) / T;
  int TilesY = (N + T - 1) / T;
  exec::ExecutionPlan Plan;
  for (int Tile = 0; Tile < TilesZ * TilesY; ++Tile)
    Plan.addExternalTask("owt-tile", [&In, &Out, N, T, TilesY, Tile](int) {
      int TZ = (Tile / TilesY) * T;
      int TY = (Tile % TilesY) * T;
      int Z1 = std::min(TZ + T, N), Y1 = std::min(TY + T, N);
      // Tile-local velocity face fluxes over exactly the faces this tile
      // touches (one extra face in the tiled dimensions: the overlap).
      // Scratch slots are thread-local, so tile-parallel execution is safe.
      Buf3 &U = scratchBuf(30), &V = scratchBuf(31), &W = scratchBuf(32);
      U.resize(TZ, TY, 0, Z1 - TZ, Y1 - TY, N + 1);
      V.resize(TZ, TY, 0, Z1 - TZ, Y1 - TY + 1, N);
      W.resize(TZ, TY, 0, Z1 - TZ + 1, Y1 - TY, N);
      computeF1(In, CompU, DirX, U);
      computeF1(In, CompV, DirY, V);
      computeF1(In, CompW, DirZ, W);
      fuseAllSweep(In, Out, U, V, W, TZ, Z1, TY, Y1, 0, N, scratchBuf(33),
                   scratchBuf(34));
    }, Tile);
  exec::RunOptions Opts;
  Opts.Threads = Threads;
  exec::runPlan(Plan, Opts);
}

/// Fusion of tiles (Figure 5c, the Halide/PolyMage shape): within each
/// tile every stage runs to completion over its expanded domain with
/// full-tile temporaries and vectorizable inner loops.
void overlapOfTilesBox(const Box &In, Box &Out, int TileSize) {
  int N = In.size();
  int T = TileSize > 0 ? TileSize : defaultTileSize(N);
  Out.copyInteriorFrom(In);
  auto F1 = [](int Dir, int C) -> Buf3 & {
    return scratchBuf(Dir * NumComps + C);
  };
  auto F2 = [](int Dir, int C) -> Buf3 & {
    return scratchBuf(3 * NumComps + Dir * NumComps + C);
  };
  for (int TZ = 0; TZ < N; TZ += T)
    for (int TY = 0; TY < N; TY += T) {
      int Z1 = std::min(TZ + T, N), Y1 = std::min(TY + T, N);
      for (int Dir = 0; Dir < 3; ++Dir) {
        for (int C = 0; C < NumComps; ++C) {
          resizeFaceBuf(F1(Dir, C), Dir, TZ, TY, 0, Z1 - TZ, Y1 - TY, N);
          computeF1(In, C, Dir, F1(Dir, C));
        }
        for (int C = 0; C < NumComps; ++C)
          computeF2(F1(Dir, C), F1(Dir, VelComp[Dir]), F2(Dir, C));
      }
      for (int Dir = 0; Dir < 3; ++Dir)
        for (int C = 0; C < NumComps; ++C)
          accumulateDiff(Out, C, Dir, F2(Dir, C), TZ, Z1, TY, Y1, 0, N);
    }
}

} // namespace

const char *mfd::variantName(Variant V) {
  switch (V) {
  case Variant::SeriesSA:
    return "series-SA";
  case Variant::SeriesReduced:
    return "series-reduced";
  case Variant::FuseAmongSA:
    return "fuseAmong-SA";
  case Variant::FuseWithinSA:
    return "fuseWithin-SA";
  case Variant::FuseWithinReduced:
    return "fuseWithin-reduced";
  case Variant::FuseAllSA:
    return "fuseAll-SA";
  case Variant::FuseAllReduced:
    return "fuseAll-reduced";
  case Variant::OverlapWithinTiles:
    return "overlap-fusionWithinTiles";
  case Variant::OverlapOfTiles:
    return "overlap-fusionOfTiles";
  }
  LCDFG_UNREACHABLE("covered switch");
}

const std::vector<Variant> &mfd::allVariants() {
  static const std::vector<Variant> All = {
      Variant::SeriesSA,          Variant::SeriesReduced,
      Variant::FuseAmongSA,       Variant::FuseWithinSA,
      Variant::FuseWithinReduced, Variant::FuseAllSA,
      Variant::FuseAllReduced,    Variant::OverlapWithinTiles,
      Variant::OverlapOfTiles};
  return All;
}

Problem Problem::smallBoxes(long TotalCells) {
  Problem P;
  P.BoxSize = 16;
  P.NumBoxes = static_cast<int>(
      std::max<long>(1, TotalCells / (16L * 16 * 16)));
  return P;
}

Problem Problem::largeBoxes(long TotalCells, int BoxSize) {
  Problem P;
  P.BoxSize = BoxSize;
  P.NumBoxes = static_cast<int>(std::max<long>(
      1, TotalCells / (static_cast<long>(BoxSize) * BoxSize * BoxSize)));
  return P;
}

std::vector<Box> mfd::makeInputs(const Problem &P, std::uint64_t Seed) {
  std::vector<Box> Boxes;
  Boxes.reserve(P.NumBoxes);
  for (int I = 0; I < P.NumBoxes; ++I) {
    Boxes.emplace_back(P.BoxSize, GhostDepth, NumComps);
    Boxes.back().fillPseudoRandom(Seed + static_cast<std::uint64_t>(I));
  }
  return Boxes;
}

std::vector<Box> mfd::makeOutputs(const Problem &P) {
  std::vector<Box> Boxes;
  Boxes.reserve(P.NumBoxes);
  for (int I = 0; I < P.NumBoxes; ++I)
    Boxes.emplace_back(P.BoxSize, GhostDepth, NumComps);
  return Boxes;
}

void mfd::runVariant(Variant V, const std::vector<Box> &In,
                     std::vector<Box> &Out, const RunConfig &Cfg,
                     exec::PlanStats *Stats) {
  assert(In.size() == Out.size() && "box count mismatch");
  auto RunBox = [&](int I) {
    switch (V) {
    case Variant::SeriesSA:
      seriesBox(In[I], Out[I], /*SingleAssignment=*/true);
      break;
    case Variant::SeriesReduced:
      seriesBox(In[I], Out[I], /*SingleAssignment=*/false);
      break;
    case Variant::FuseAmongSA:
      fuseAmongBox(In[I], Out[I]);
      break;
    case Variant::FuseWithinSA:
      fuseWithinBox(In[I], Out[I], /*SingleAssignment=*/true);
      break;
    case Variant::FuseWithinReduced:
      fuseWithinBox(In[I], Out[I], /*SingleAssignment=*/false);
      break;
    case Variant::FuseAllSA:
      fuseAllBox(In[I], Out[I], /*SingleAssignment=*/true);
      break;
    case Variant::FuseAllReduced:
      fuseAllBox(In[I], Out[I], /*SingleAssignment=*/false);
      break;
    case Variant::OverlapWithinTiles:
      overlapWithinTilesBox(In[I], Out[I], Cfg.TileSize,
                            Cfg.ParallelOverBoxes ? 1 : Cfg.Threads);
      break;
    case Variant::OverlapOfTiles:
      overlapOfTilesBox(In[I], Out[I], Cfg.TileSize);
      break;
    }
  };
  if (Cfg.ParallelOverBoxes) {
    // Boxes are independent: one external task each, no dependence edges.
    exec::ExecutionPlan Plan;
    for (int I = 0; I < static_cast<int>(In.size()); ++I)
      Plan.addExternalTask(variantName(V), [&RunBox, I](int) { RunBox(I); });
    exec::RunOptions Opts;
    Opts.Threads = Cfg.Threads;
    exec::PlanStats St = exec::runPlan(Plan, Opts);
    if (Stats)
      *Stats = std::move(St);
  } else {
    // Within-box parallelism: boxes run sequentially; tiled variants
    // spread their tiles over the threads instead.
    for (int I = 0; I < static_cast<int>(In.size()); ++I)
      RunBox(I);
  }
}

long mfd::temporaryElements(Variant V, int N, int TileSize) {
  long Face = static_cast<long>(N) * N * (N + 1);
  int T = TileSize > 0 ? TileSize : defaultTileSize(N);
  long TileFace = static_cast<long>(T) * T * (N + 1);
  switch (V) {
  case Variant::SeriesSA:
  case Variant::FuseAmongSA:
    return 6L * NumComps * Face;
  case Variant::SeriesReduced:
    return 2L * NumComps * Face;
  case Variant::FuseWithinSA:
    return (2L * NumComps + 1) * Face;
  case Variant::FuseWithinReduced:
    return Face + NumComps * (static_cast<long>(N) * N + N + 1);
  case Variant::FuseAllSA:
    return (6L * NumComps + 3) * Face;
  case Variant::FuseAllReduced:
    return 3L * Face + NumComps * (static_cast<long>(N) * N + N + 1);
  case Variant::OverlapWithinTiles:
    return 3L * TileFace + NumComps * (static_cast<long>(T) * N + N + 1);
  case Variant::OverlapOfTiles:
    return 6L * NumComps * TileFace;
  }
  LCDFG_UNREACHABLE("covered switch");
}
