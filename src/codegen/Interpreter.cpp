//===- codegen/Interpreter.cpp --------------------------------------------===//

#include "codegen/Interpreter.h"

#include "support/Errors.h"
#include "support/Status.h"

using namespace lcdfg;
using namespace lcdfg::codegen;

int KernelRegistry::add(Kernel K, BatchedKernel B) {
  Kernels.push_back(std::move(K));
  BatchedKernels.push_back(B);
  Exprs.emplace_back();
  return static_cast<int>(Kernels.size() - 1);
}

int KernelRegistry::add(Kernel K, BatchedKernel B, KernelExpr E) {
  int Id = add(std::move(K), B);
  Exprs[static_cast<std::size_t>(Id)] = std::move(E);
  return Id;
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
