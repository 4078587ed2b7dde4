//===- minifluxdiv/Variants.h - Benchmark schedule variants -----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-coded 3D MiniFluxDiv implementations of Section 5.2, one per
/// schedule variant developed with the M2DFGs:
///
///   * series of loops, single-assignment and storage-reduced (baseline);
///   * fuse among directions (single-assignment only — no storage
///     reduction opportunities, Figure 7);
///   * fuse within directions, SA and reduced (Figure 8);
///   * fuse all levels, SA and reduced (Figure 9);
///   * overlapped tiling, fusion-within-tiles (intra-tile fuse-all) and
///     fusion-of-tiles (tile-then-fuse, the Halide/PolyMage shape).
///
/// Every variant computes the same result (see Verify.h); they differ in
/// schedule and temporary-storage traffic exactly as the graphs predict.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_MINIFLUXDIV_VARIANTS_H
#define LCDFG_MINIFLUXDIV_VARIANTS_H

#include "exec/PlanRunner.h"
#include "runtime/BoxGrid.h"

#include <string>
#include <vector>

namespace lcdfg {
namespace mfd {

/// Component indices: density, three velocities, energy.
inline constexpr int CompRho = 0;
inline constexpr int CompU = 1;
inline constexpr int CompV = 2;
inline constexpr int CompW = 3;
inline constexpr int CompE = 4;
inline constexpr int NumComps = 5;
inline constexpr int GhostDepth = 2;

/// The schedule variants of Section 5.2.
enum class Variant {
  SeriesSA,
  SeriesReduced,
  FuseAmongSA,
  FuseWithinSA,
  FuseWithinReduced,
  FuseAllSA,
  FuseAllReduced,
  OverlapWithinTiles,
  OverlapOfTiles,
};

/// Short display name, e.g. "fuseAll-reduced".
const char *variantName(Variant V);

/// All variants, in presentation order.
const std::vector<Variant> &allVariants();

/// Execution configuration for a run.
struct RunConfig {
  int Threads = 1;
  /// Tile edge (y and z) for the overlapped-tiling variants; 0 picks a
  /// cache-friendly default.
  int TileSize = 0;
  /// Parallelize over boxes (the default) or within boxes over tiles
  /// (the only choice available to the Halide/PolyMage comparators).
  bool ParallelOverBoxes = true;
};

/// Problem shape: boxes of BoxSize^3 cells.
struct Problem {
  int BoxSize = 16;
  int NumBoxes = 8;

  /// Total cells across boxes.
  long totalCells() const {
    return static_cast<long>(NumBoxes) * BoxSize * BoxSize * BoxSize;
  }

  /// The paper's small-box configuration (16^3), scaled by \p TotalCells.
  static Problem smallBoxes(long TotalCells);
  /// The paper's large-box configuration (128^3 in the paper; 64^3 here by
  /// default to fit the container), scaled by \p TotalCells.
  static Problem largeBoxes(long TotalCells, int BoxSize = 64);
};

/// Allocates and deterministically fills the input boxes.
std::vector<rt::Box> makeInputs(const Problem &P, std::uint64_t Seed);

/// Allocates zeroed output boxes matching \p P (no ghost cells needed, but
/// the same shape is used for simplicity).
std::vector<rt::Box> makeOutputs(const Problem &P);

/// Runs one variant over all boxes: each output box is initialized from its
/// input's interior and updated with the flux differences of all three
/// directions. When \p Stats is non-null and the parallel-over-boxes plan
/// path ran, the plan's runtime measurements (per-worker busy time, idle
/// shares) are copied out for scheduler comparisons.
void runVariant(Variant V, const std::vector<rt::Box> &In,
                std::vector<rt::Box> &Out, const RunConfig &Cfg,
                exec::PlanStats *Stats = nullptr);

/// Approximate peak temporary storage in doubles per concurrently-processed
/// box for a variant (the quantity Figure 10 ties to performance).
long temporaryElements(Variant V, int BoxSize, int TileSize = 0);

} // namespace mfd
} // namespace lcdfg

#endif // LCDFG_MINIFLUXDIV_VARIANTS_H
