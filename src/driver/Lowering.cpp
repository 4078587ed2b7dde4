//===- driver/Lowering.cpp ------------------------------------------------===//

#include "driver/Lowering.h"

#include "codegen/Generator.h"
#include "graph/GraphBuilder.h"
#include "verify/PlanVerifier.h"

#include <map>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::driver;

namespace {

/// The stand-in's one definition: a left fold of + over its operands —
/// the target's current value first when accumulating, 0.0 first when pure.
template <bool Pure>
constexpr auto SumOfReads = [](auto... Ops) {
  if constexpr (Pure)
    return (0.0 + ... + Ops);
  else
    return (... + Ops);
};

/// Registers the stand-in for the compile-time arity equal to \p Arity
/// among \p Arities, or returns -1 when none is.
template <bool Pure, std::size_t... Arities>
int defineStandIn(codegen::KernelRegistry &Kernels, std::size_t Arity,
                  std::index_sequence<Arities...>) {
  int Id = -1;
  ((Arity == Arities &&
    (Id = Kernels.define<Arities, !Pure>(SumOfReads<Pure>), true)) ||
   ...);
  return Id;
}

std::int64_t storageBytes(const storage::ConcreteStorage &Store) {
  std::int64_t Bytes = 0;
  for (std::size_t S = 0; S < Store.numSpaces(); ++S)
    Bytes += static_cast<std::int64_t>(Store.space(S).size() * sizeof(double));
  return Bytes;
}

} // namespace

int driver::addStandInKernel(codegen::KernelRegistry &Kernels,
                             std::size_t Arity, bool Pure) {
  constexpr auto Batched = std::make_index_sequence<9>();
  int Id = Pure ? defineStandIn<true>(Kernels, Arity, Batched)
                : defineStandIn<false>(Kernels, Arity, Batched);
  if (Id >= 0)
    return Id;
  // Wider stand-ins have no batched body. Their expression is the same
  // fold, taken one read at a time, and is also their scalar body.
  codegen::KernelExpr E =
      Pure ? codegen::KernelExpr(SumOfReads<true>()) : codegen::current();
  for (std::size_t J = 0; J < Arity; ++J)
    E = SumOfReads<false>(E, codegen::read(static_cast<unsigned>(J)));
  return Kernels.add(std::move(E));
}

void driver::assignStandInKernels(ir::LoopChain &Chain,
                                  codegen::KernelRegistry &Kernels,
                                  bool Pure) {
  std::map<std::size_t, int> ByArity;
  for (unsigned N = 0; N < Chain.numNests(); ++N) {
    if (Chain.nest(N).KernelId >= 0)
      continue;
    std::size_t Arity = 0;
    for (const ir::Access &A : Chain.nest(N).Reads)
      Arity += A.Offsets.size();
    auto It = ByArity.find(Arity);
    if (It == ByArity.end())
      It = ByArity.emplace(Arity, addStandInKernel(Kernels, Arity, Pure))
               .first;
    Chain.nest(N).KernelId = It->second;
  }
}

void driver::seedInputs(const ir::LoopChain &Chain,
                        storage::ConcreteStorage &Store) {
  for (const std::string &Name : Chain.arrayNames())
    if (Chain.array(Name).Kind == ir::StorageKind::PersistentInput) {
      std::vector<double> &Buf = Store.spaceOf(Name);
      for (std::size_t I = 0; I < Buf.size(); ++I)
        Buf[I] = 0.001 * static_cast<double>((I * 2654435761u) % 1000u);
    }
}

Scheduled::Scheduled(ir::LoopChain C)
    : Chain(std::make_unique<ir::LoopChain>(std::move(C))),
      G(graph::buildGraph(*Chain)) {}

support::Expected<Lowered> Lowered::lower(Scheduled S,
                                          codegen::KernelRegistry Kernels,
                                          const LowerOptions &Opts) {
  Lowered L(std::move(S));
  L.Kernels = std::move(Kernels);
  assignStandInKernels(*L.Chain, L.Kernels, Opts.Harden);

  // Bind every plausible extent symbol; chains only consult the symbols
  // they actually use.
  for (const char *Sym : {"N", "M", "X", "Y", "Z", "W"})
    L.Env.emplace(Sym, Opts.Size);

  auto SPlan = storage::StoragePlan::tryBuild(*L.G, /*UseAllocation=*/true,
                                              Opts.Widen);
  if (!SPlan)
    return SPlan.takeError();
  L.SPlan = std::move(*SPlan);

  // One throwaway concrete binding per plan: lowering resolves streams
  // against it, and it prices one run's allocation.
  auto Done = support::tryInvoke([&] {
    storage::ConcreteStorage Store(L.SPlan, L.Env);
    L.Ast = codegen::generate(*L.G);
    L.Plan = exec::ExecutionPlan::fromAst(*L.G, *L.Ast, Store, L.Env);
    L.StoreBytes = storageBytes(Store);

    L.RefG.emplace(graph::buildGraph(*L.Chain));
    L.FbSPlan = storage::StoragePlan::build(*L.RefG);
    storage::ConcreteStorage FbStore(L.FbSPlan, L.Env);
    L.FbPlan =
        exec::ExecutionPlan::fromChain(*L.Chain, FbStore, L.Env, &*L.RefG);
    L.FallbackBytes = storageBytes(FbStore);
    return 0;
  });
  if (!Done)
    return Done.takeError();
  return L;
}

void Lowered::seedStore(storage::ConcreteStorage &Store) const {
  seedInputs(*Chain, Store);
}

verify::Diagnostics Lowered::verify() const {
  verify::VerifyOptions VOpts;
  VOpts.Kernels = &Kernels;
  verify::PlanVerifier Verifier(Plan, VOpts);
  verify::Diagnostics Diags = Verifier.verify();
  verify::checkGraphSchedule(*G, Diags);
  return Diags;
}
