//===- codegen/Interpreter.cpp --------------------------------------------===//

#include "codegen/Interpreter.h"

#include "support/Errors.h"
#include "support/Status.h"

using namespace lcdfg;
using namespace lcdfg::codegen;

int KernelRegistry::insert(Kernel K, BatchedKernel B,
                           std::optional<KernelExpr> E) {
  Kernels.push_back(std::move(K));
  BatchedKernels.push_back(B);
  Exprs.push_back(std::move(E));
  return static_cast<int>(Kernels.size() - 1);
}

int KernelRegistry::add(Kernel K, BatchedKernel B) {
  return insert(std::move(K), B, std::nullopt);
}

int KernelRegistry::add(KernelExpr E) {
  return insert(
      [E](const std::vector<double> &Reads, double Current) {
        return E.eval(Reads, Current);
      },
      nullptr, E);
}

const KernelRegistry::Kernel &KernelRegistry::get(int Id) const {
  if (Id < 0 || Id >= static_cast<int>(Kernels.size()))
    support::raise(support::ErrorCode::KernelMissing,
                   "kernel registry: unknown kernel id " +
                     std::to_string(Id));
  return Kernels[static_cast<std::size_t>(Id)];
}

BatchedKernel KernelRegistry::batched(int Id) const {
  if (Id < 0 || Id >= static_cast<int>(BatchedKernels.size()))
    return nullptr;
  return BatchedKernels[static_cast<std::size_t>(Id)];
}

const KernelExpr *KernelRegistry::expr(int Id) const {
  if (Id < 0 || Id >= static_cast<int>(Exprs.size()))
    return nullptr;
  const auto &E = Exprs[static_cast<std::size_t>(Id)];
  return E ? &*E : nullptr;
}
