//===- tests/minifluxdiv/KernelFormsTest.cpp ------------------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Each MiniFluxDiv kernel is one definition from which the registry derives
// a scalar, a batched and an expression form. The three must compute the
// same bits on every input, and the expression text — which keys the JIT
// cache — must stay what it is.
//
//===----------------------------------------------------------------------===//

#include "codegen/Interpreter.h"
#include "minifluxdiv/Spec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace lcdfg;

namespace {

struct KernelCase {
  const char *Nest;  ///< A nest of the 2D chain that runs the kernel.
  std::size_t Arity; ///< Operand values per statement instance.
  const char *Text;  ///< KernelExpr::text() of the expression form.
};

const KernelCase Cases[] = {
    {"Fx1_rho", 4,
     "((0x1.2aaaaaaaaaaabp-1 * (R1 + R2)) - (0x1.5555555555555p-4 * "
     "(R0 + R3)))"},
    {"Fx2_rho", 2, "(R0 * R1)"},
    {"Fx2_u", 1, "(R0 * R0)"},
    {"Dx_rho", 2, "(W + (0x1p-1 * (R1 - R0)))"},
};

int kernelOf(const ir::LoopChain &Chain, const std::string &Nest) {
  for (unsigned I = 0; I < Chain.numNests(); ++I)
    if (Chain.nest(I).Name == Nest)
      return Chain.nest(I).KernelId;
  ADD_FAILURE() << "no nest " << Nest;
  return -1;
}

} // namespace

TEST(MfdKernels, ScalarBatchedAndExpressionFormsAreBitIdentical) {
  ir::LoopChain Chain = mfd::buildChain2D();
  codegen::KernelRegistry Kernels;
  mfd::registerKernels(Chain, Kernels);

  std::mt19937_64 Rng(0xf1d5);
  // Signed values across magnitudes, so rounding order shows.
  std::uniform_real_distribution<double> Mant(-1.0, 1.0);
  std::uniform_int_distribution<int> Exp(-20, 20);
  auto draw = [&] { return std::ldexp(Mant(Rng), Exp(Rng)); };

  for (const KernelCase &C : Cases) {
    SCOPED_TRACE(C.Nest);
    const int Id = kernelOf(Chain, C.Nest);
    const codegen::KernelExpr *E = Kernels.expr(Id);
    codegen::BatchedKernel B = Kernels.batched(Id);
    ASSERT_NE(E, nullptr);
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(E->maxRead(), static_cast<int>(C.Arity) - 1);

    // Operand J is read at stride (J + Shift) % 3 (0 broadcasts one value),
    // so each operand sees strides 0, 1 and 2.
    for (std::size_t Shift = 0; Shift < 3; ++Shift) {
      constexpr std::int64_t N = 33;
      std::vector<std::vector<double>> Operands(C.Arity);
      std::vector<const double *> Ptrs;
      std::vector<std::int64_t> Strides;
      for (std::size_t J = 0; J < C.Arity; ++J) {
        for (std::int64_t I = 0; I < 2 * N; ++I)
          Operands[J].push_back(draw());
        Ptrs.push_back(Operands[J].data());
        Strides.push_back(static_cast<std::int64_t>((J + Shift) % 3));
      }
      std::vector<double> Target(N);
      for (double &T : Target)
        T = draw();

      std::vector<double> Batched = Target;
      B(Batched.data(), Ptrs.data(), Strides.data(), 1, N);
      for (std::int64_t I = 0; I < N; ++I) {
        std::vector<double> Reads;
        for (std::size_t J = 0; J < C.Arity; ++J)
          Reads.push_back(
              Operands[J][static_cast<std::size_t>(I * Strides[J])]);
        const double Scalar = Kernels.get(Id)(Reads, Target[I]);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Scalar),
                  std::bit_cast<std::uint64_t>(Batched[I]))
            << "shift " << Shift << " point " << I;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(Scalar),
                  std::bit_cast<std::uint64_t>(E->eval(Reads, Target[I])))
            << "shift " << Shift << " point " << I;
      }
    }
  }
}

TEST(MfdKernels, ExpressionTextIsPinned) {
  // The JIT cache keys hash these trees: a changed text is a changed key.
  for (ir::LoopChain Chain : {mfd::buildChain2D(), mfd::buildChain3D()}) {
    codegen::KernelRegistry Kernels;
    mfd::registerKernels(Chain, Kernels);
    for (const KernelCase &C : Cases) {
      const codegen::KernelExpr *E = Kernels.expr(kernelOf(Chain, C.Nest));
      ASSERT_NE(E, nullptr) << C.Nest;
      EXPECT_EQ(E->text(), C.Text) << C.Nest;
    }
  }
}
