//===- codegen/KernelExpr.cpp - Portable kernel body expressions ----------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "codegen/KernelExpr.h"

#include "support/Hash.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace lcdfg {
namespace codegen {

struct KernelExpr::Node {
  Kind K;
  double Value = 0.0;   // Const
  unsigned Index = 0;   // Read
  std::shared_ptr<const Node> L, R;
};

KernelExpr::KernelExpr(std::shared_ptr<const Node> RootIn)
    : Root(std::move(RootIn)) {}

KernelExpr::KernelExpr(double V) {
  auto N = std::make_shared<Node>();
  N->K = Kind::Const;
  N->Value = V;
  Root = std::move(N);
}

KernelExpr KernelExpr::read(unsigned J) {
  auto N = std::make_shared<Node>();
  N->K = Kind::Read;
  N->Index = J;
  return KernelExpr(std::move(N));
}

KernelExpr KernelExpr::current() {
  auto N = std::make_shared<Node>();
  N->K = Kind::Current;
  return KernelExpr(std::move(N));
}

KernelExpr KernelExpr::binary(Kind K, const KernelExpr &L,
                              const KernelExpr &R) {
  auto N = std::make_shared<Node>();
  N->K = K;
  N->L = L.Root;
  N->R = R.Root;
  return KernelExpr(std::move(N));
}

KernelExpr operator+(const KernelExpr &L, const KernelExpr &R) {
  return KernelExpr::binary(KernelExpr::Kind::Add, L, R);
}

KernelExpr operator-(const KernelExpr &L, const KernelExpr &R) {
  return KernelExpr::binary(KernelExpr::Kind::Sub, L, R);
}

KernelExpr operator*(const KernelExpr &L, const KernelExpr &R) {
  return KernelExpr::binary(KernelExpr::Kind::Mul, L, R);
}

namespace {

int maxReadOf(const KernelExpr::Node &N) {
  switch (N.K) {
  case KernelExpr::Kind::Const:
  case KernelExpr::Kind::Current:
    return -1;
  case KernelExpr::Kind::Read:
    return static_cast<int>(N.Index);
  default:
    return std::max(maxReadOf(*N.L), maxReadOf(*N.R));
  }
}

/// Hexfloat literal: round-trips the exact bit pattern through any C
/// compiler, unlike decimal shortest-round-trip forms.
std::string hexLiteral(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

std::string renderNode(const KernelExpr::Node &N,
                       const std::function<std::string(unsigned)> &Read,
                       const std::string &Current) {
  switch (N.K) {
  case KernelExpr::Kind::Const:
    return hexLiteral(N.Value);
  case KernelExpr::Kind::Read:
    return Read(N.Index);
  case KernelExpr::Kind::Current:
    return Current;
  case KernelExpr::Kind::Add:
  case KernelExpr::Kind::Sub:
  case KernelExpr::Kind::Mul: {
    const char Op = N.K == KernelExpr::Kind::Add   ? '+'
                    : N.K == KernelExpr::Kind::Sub ? '-'
                                                   : '*';
    // Full parenthesization: the tree shape, not C precedence, fixes the
    // evaluation order the bit-compare gates depend on.
    return "(" + renderNode(*N.L, Read, Current) + " " + Op + " " +
           renderNode(*N.R, Read, Current) + ")";
  }
  }
  return {};
}

std::uint64_t hashNode(const KernelExpr::Node &N, std::uint64_t H) {
  const auto Kind = static_cast<unsigned char>(N.K);
  H = support::fnv1aBytes(&Kind, 1, H);
  switch (N.K) {
  case KernelExpr::Kind::Const: {
    std::uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(N.Value));
    std::memcpy(&Bits, &N.Value, sizeof(Bits));
    return support::fnv1aU64(H, Bits);
  }
  case KernelExpr::Kind::Read:
    return support::fnv1aU64(H, N.Index);
  case KernelExpr::Kind::Current:
    return H;
  default:
    return hashNode(*N.R, hashNode(*N.L, H));
  }
}

double evalNode(const KernelExpr::Node &N, const std::vector<double> &Reads,
                double Current) {
  switch (N.K) {
  case KernelExpr::Kind::Const:
    return N.Value;
  case KernelExpr::Kind::Read:
    return N.Index < Reads.size() ? Reads[N.Index] : 0.0;
  case KernelExpr::Kind::Current:
    return Current;
  case KernelExpr::Kind::Add:
    return evalNode(*N.L, Reads, Current) + evalNode(*N.R, Reads, Current);
  case KernelExpr::Kind::Sub:
    return evalNode(*N.L, Reads, Current) - evalNode(*N.R, Reads, Current);
  case KernelExpr::Kind::Mul:
    return evalNode(*N.L, Reads, Current) * evalNode(*N.R, Reads, Current);
  }
  return 0.0;
}

} // namespace

int KernelExpr::maxRead() const { return maxReadOf(*Root); }

std::string
KernelExpr::render(const std::function<std::string(unsigned)> &Read,
                   const std::string &Current) const {
  return renderNode(*Root, Read, Current);
}

std::string KernelExpr::text() const {
  return render([](unsigned J) { return "R" + std::to_string(J); }, "W");
}

double KernelExpr::eval(const std::vector<double> &Reads,
                        double Current) const {
  return evalNode(*Root, Reads, Current);
}

std::uint64_t KernelExpr::hash(std::uint64_t Seed) const {
  return hashNode(*Root, Seed);
}

} // namespace codegen
} // namespace lcdfg
