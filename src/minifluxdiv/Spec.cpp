//===- minifluxdiv/Spec.cpp -----------------------------------------------===//

#include "minifluxdiv/Spec.h"

#include "support/Errors.h"

#include <cassert>

using namespace lcdfg;
using namespace lcdfg::mfd;
using poly::AffineExpr;
using poly::BoxSet;
using poly::Dim;

namespace {

/// Description of one spatial direction of the benchmark.
struct Direction {
  char Letter;          // 'x', 'y', 'z'
  unsigned DimIdx;      // index in the (z,)y,x loop order
  std::string Velocity; // component providing the face velocity
};

/// Builds the chain for the given dimensionality.
ir::LoopChain buildChain(unsigned Rank,
                         const std::vector<std::string> &Comps,
                         const std::vector<Direction> &Dirs,
                         const std::vector<std::string> &DimNames) {
  ir::LoopChain Chain(Rank == 2 ? "minifluxdiv2d" : "minifluxdiv3d", "fuse");
  AffineExpr N = AffineExpr::var("N");

  auto CellDomain = [&] {
    std::vector<Dim> Dims(Rank);
    for (unsigned D = 0; D < Rank; ++D)
      Dims[D] = Dim{DimNames[D], AffineExpr(0), N - AffineExpr(1)};
    return BoxSet(std::move(Dims));
  };
  auto FaceDomain = [&](unsigned FaceDim) {
    std::vector<Dim> Dims(Rank);
    for (unsigned D = 0; D < Rank; ++D)
      Dims[D] = Dim{DimNames[D], AffineExpr(0),
                    D == FaceDim ? N : N - AffineExpr(1)};
    return BoxSet(std::move(Dims));
  };
  auto Offset = [&](unsigned D, std::int64_t V) {
    std::vector<std::int64_t> O(Rank, 0);
    O[D] = V;
    return O;
  };
  std::vector<std::int64_t> Zero(Rank, 0);

  for (const Direction &Dir : Dirs) {
    std::string D(1, Dir.Letter);
    // Partial flux F1: fourth-order face interpolation of the inputs.
    for (const std::string &C : Comps) {
      ir::LoopNest Nest;
      Nest.Name = "F" + D + "1_" + C;
      Nest.Domain = FaceDomain(Dir.DimIdx);
      Nest.Write = ir::Access{"F1" + D + "_" + C, {Zero}};
      Nest.Reads = {ir::Access{"in_" + C,
                               {Offset(Dir.DimIdx, -2), Offset(Dir.DimIdx, -1),
                                Zero, Offset(Dir.DimIdx, 1)}}};
      Chain.addNest(std::move(Nest));
    }
    // Complete flux F2: scale by the face velocity of this direction.
    for (const std::string &C : Comps) {
      ir::LoopNest Nest;
      Nest.Name = "F" + D + "2_" + C;
      Nest.Domain = FaceDomain(Dir.DimIdx);
      Nest.Write = ir::Access{"F2" + D + "_" + C, {Zero}};
      Nest.Reads = {ir::Access{"F1" + D + "_" + C, {Zero}}};
      if (C != Dir.Velocity)
        Nest.Reads.push_back(
            ir::Access{"F1" + D + "_" + Dir.Velocity, {Zero}});
      Chain.addNest(std::move(Nest));
    }
    // Flux difference D: accumulate into the cell-centered outputs.
    for (const std::string &C : Comps) {
      ir::LoopNest Nest;
      Nest.Name = "D" + D + "_" + C;
      Nest.Domain = CellDomain();
      Nest.Write = ir::Access{"out_" + C, {Zero}};
      Nest.Reads = {
          ir::Access{"F2" + D + "_" + C, {Zero, Offset(Dir.DimIdx, 1)}}};
      Chain.addNest(std::move(Nest));
    }
  }
  Chain.finalize();
  return Chain;
}

} // namespace

ir::LoopChain mfd::buildChain2D() {
  return buildChain(2, {"rho", "u", "v", "e"},
                    {Direction{'x', 1, "u"}, Direction{'y', 0, "v"}},
                    {"y", "x"});
}

ir::LoopChain mfd::buildChain3D() {
  return buildChain(3, {"rho", "u", "v", "w", "e"},
                    {Direction{'x', 2, "u"}, Direction{'y', 1, "v"},
                     Direction{'z', 0, "w"}},
                    {"z", "y", "x"});
}

void mfd::registerKernels(ir::LoopChain &Chain,
                          codegen::KernelRegistry &Registry) {
  // One definition per statement body; the registry derives the scalar,
  // batched and JIT expression forms from it. Diff accumulates into its
  // write, whose current value comes first.
  int F1 = Registry.define<4>([](auto R0, auto R1, auto R2, auto R3) {
    return FluxC1 * (R1 + R2) - FluxC2 * (R0 + R3);
  });
  int F2 = Registry.define<2>([](auto R0, auto R1) { return R0 * R1; });
  int F2Vel = Registry.define<1>([](auto R0) { return R0 * R0; });
  int Diff = Registry.define<2, /*Accumulates=*/true>(
      [](auto W, auto R0, auto R1) { return W + DiffScale * (R1 - R0); });
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    ir::LoopNest &Nest = Chain.nest(I);
    if (Nest.Name[0] == 'D')
      Nest.KernelId = Diff;
    else if (Nest.Name[2] == '1')
      Nest.KernelId = F1;
    else
      Nest.KernelId = Nest.Reads.size() == 1 ? F2Vel : F2;
  }
}

namespace {

/// Discovers the direction letters and component names from nest names of
/// the form F<d>1_<comp>.
void discover(const graph::Graph &G, std::vector<char> &Dirs,
              std::vector<std::string> &Comps,
              std::map<char, std::string, std::less<>> &Velocity) {
  const ir::LoopChain &Chain = G.chain();
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    const std::string &Name = Chain.nest(I).Name;
    if (Name.size() < 5 || Name[0] != 'F' || Name[2] != '1')
      continue;
    char D = Name[1];
    std::string Comp = Name.substr(Name.find('_') + 1);
    if (std::find(Dirs.begin(), Dirs.end(), D) == Dirs.end())
      Dirs.push_back(D);
    if (std::find(Comps.begin(), Comps.end(), Comp) == Comps.end())
      Comps.push_back(Comp);
  }
  // The velocity of a direction is the component whose F2 has one read.
  for (unsigned I = 0; I < Chain.numNests(); ++I) {
    const std::string &Name = Chain.nest(I).Name;
    if (Name.size() < 5 || Name[0] != 'F' || Name[2] != '2')
      continue;
    if (Chain.nest(I).Reads.size() == 1)
      Velocity[Name[1]] = Name.substr(Name.find('_') + 1);
  }
}

unsigned nestByName(const ir::LoopChain &Chain, const std::string &Name) {
  for (unsigned I = 0; I < Chain.numNests(); ++I)
    if (Chain.nest(I).Name == Name)
      return I;
  reportFatalError("minifluxdiv recipe: no nest named " + Name);
}

graph::NodeId nodeOf(const graph::Graph &G, const std::string &NestName) {
  graph::NodeId Id = G.stmtOfNest(nestByName(G.chain(), NestName));
  if (Id == graph::InvalidNode)
    reportFatalError("minifluxdiv recipe: nest " + NestName +
                     " not in any live node");
  return Id;
}

void mustOk(const graph::TransformResult &R) {
  if (!R)
    reportFatalError("minifluxdiv recipe: " + R.Error);
}

} // namespace

void mfd::applyFuseAmongDirections(graph::Graph &G) {
  std::vector<char> Dirs;
  std::vector<std::string> Comps;
  std::map<char, std::string, std::less<>> Velocity;
  discover(G, Dirs, Comps, Velocity);

  // Read-reduction fuse the partial-flux nodes of all directions per
  // component: each input is then streamed once.
  for (const std::string &C : Comps) {
    graph::NodeId First = nodeOf(G, std::string("F") + Dirs[0] + "1_" + C);
    for (std::size_t D = 1; D < Dirs.size(); ++D)
      mustOk(fuseReadReduction(
          G, First, nodeOf(G, std::string("F") + Dirs[D] + "1_" + C)));
  }
  // Bring every direction's complete-flux row up to the first direction's.
  int F2Row = G.stmt(nodeOf(G, std::string("F") + Dirs[0] + "2_" +
                                   Comps[0]))
                  .Row;
  for (std::size_t D = 1; D < Dirs.size(); ++D)
    for (const std::string &C : Comps)
      mustOk(reschedule(
          G, nodeOf(G, std::string("F") + Dirs[D] + "2_" + C), F2Row));
  // Fuse the flux-difference nodes per component: better locality on the
  // shared cell-centered outputs.
  for (const std::string &C : Comps) {
    graph::NodeId First = nodeOf(G, std::string("D") + Dirs[0] + "_" + C);
    for (std::size_t D = 1; D < Dirs.size(); ++D)
      mustOk(fuseReadReduction(
          G, First, nodeOf(G, std::string("D") + Dirs[D] + "_" + C)));
  }
  G.compactRows();
  G.compactColumns();
}

namespace {

/// Fuses the F1 -> F2 -> D chain of one direction and component into a
/// single node; returns the fused node. The velocity component's F1 stays
/// standalone (it feeds every component's F2).
graph::NodeId fuseDirectionChain(graph::Graph &G, char Dir,
                                 const std::string &Comp,
                                 const std::string &Velocity) {
  std::string D(1, Dir);
  if (Comp != Velocity)
    mustOk(graph::fuseProducerConsumer(G, nodeOf(G, "F" + D + "1_" + Comp),
                                       nodeOf(G, "F" + D + "2_" + Comp)));
  graph::NodeId Node = nodeOf(G, "F" + D + "2_" + Comp);
  mustOk(graph::fuseProducerConsumer(G, Node,
                                     nodeOf(G, "D" + D + "_" + Comp)));
  return nodeOf(G, "D" + D + "_" + Comp);
}

} // namespace

void mfd::applyFuseWithinDirections(graph::Graph &G) {
  std::vector<char> Dirs;
  std::vector<std::string> Comps;
  std::map<char, std::string, std::less<>> Velocity;
  discover(G, Dirs, Comps, Velocity);

  for (char Dir : Dirs)
    for (const std::string &C : Comps)
      fuseDirectionChain(G, Dir, C, Velocity[Dir]);
  G.compactRows();
  G.compactColumns();
}

void mfd::applyFuseAllLevels(graph::Graph &G) {
  std::vector<char> Dirs;
  std::vector<std::string> Comps;
  std::map<char, std::string, std::less<>> Velocity;
  discover(G, Dirs, Comps, Velocity);

  // The velocity partial fluxes are computed up front (row 1); they feed
  // every component of their direction.
  int VelRow =
      G.stmt(nodeOf(G, std::string("F") + Dirs[0] + "1_" + Velocity[Dirs[0]]))
          .Row;
  for (std::size_t D = 1; D < Dirs.size(); ++D)
    mustOk(reschedule(
        G, nodeOf(G, std::string("F") + Dirs[D] + "1_" + Velocity[Dirs[D]]),
        VelRow));

  // Fuse each direction chain, then read-reduction fuse the directions per
  // component (the inputs are then streamed once per component)...
  std::map<std::string, graph::NodeId> PerComp;
  for (const std::string &C : Comps) {
    graph::NodeId Merged = graph::InvalidNode;
    for (char Dir : Dirs) {
      graph::NodeId Part = fuseDirectionChain(G, Dir, C, Velocity[Dir]);
      if (Merged == graph::InvalidNode)
        Merged = Part;
      else
        mustOk(fuseReadReduction(G, Merged, Part, /*CollapseShared=*/true));
      Merged = G.stmtOfNest(nestByName(G.chain(),
                                       std::string("D") + Dirs[0] + "_" + C));
    }
    PerComp[C] = Merged;
  }
  // ... then coalesce the per-component nodes into the single fused node of
  // Figure 9. The velocity face fluxes stay separate streams per consuming
  // statement set, so shared reads are not collapsed here.
  graph::NodeId Big = PerComp[Comps[0]];
  for (std::size_t I = 1; I < Comps.size(); ++I) {
    mustOk(fuseReadReduction(G, Big, PerComp[Comps[I]],
                             /*CollapseShared=*/false));
    Big = G.stmtOfNest(
        nestByName(G.chain(), std::string("D") + Dirs[0] + "_" + Comps[0]));
  }
  G.compactRows();
  G.compactColumns();
}
