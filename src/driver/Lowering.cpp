//===- driver/Lowering.cpp ------------------------------------------------===//

#include "driver/Lowering.h"

#include "codegen/Generator.h"
#include "graph/GraphBuilder.h"
#include "verify/PlanVerifier.h"

#include <array>
#include <map>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::driver;

namespace {

/// Batched stand-in body, one instantiation per read arity (the batched ABI
/// fixes the arity per kernel).
template <bool Pure, int Arity>
void batchedSum(double *W, const double *const *R, const std::int64_t *S,
                std::int64_t WS, std::int64_t N) {
  for (std::int64_t I = 0; I < N; ++I) {
    double Sum = Pure ? 0.0 : W[I * WS];
    for (int J = 0; J < Arity; ++J)
      Sum += R[J][I * S[J]];
    W[I * WS] = Sum;
  }
}

template <bool Pure, int... Arity>
constexpr std::array<codegen::BatchedKernel, sizeof...(Arity)>
batchedTable(std::integer_sequence<int, Arity...>) {
  return {batchedSum<Pure, Arity>...};
}

codegen::BatchedKernel batchedSumForArity(std::size_t Arity, bool Pure) {
  static constexpr auto Acc =
      batchedTable<false>(std::make_integer_sequence<int, 9>());
  static constexpr auto PureT =
      batchedTable<true>(std::make_integer_sequence<int, 9>());
  if (Arity >= Acc.size())
    return nullptr;
  return Pure ? PureT[Arity] : Acc[Arity];
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
  codegen::KernelExpr E = Pure ? codegen::lit(0.0) : codegen::current();
  for (std::size_t J = 0; J < Arity; ++J)
    E = E + codegen::read(static_cast<unsigned>(J));
  return Kernels.add(
      [Pure](const std::vector<double> &Reads, double Current) {
        double Sum = Pure ? 0.0 : Current;
        for (double R : Reads)
          Sum += R;
        return Sum;
      },
      batchedSumForArity(Arity, Pure), std::move(E));
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
