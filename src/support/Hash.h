//===- support/Hash.h - FNV-1a 64-bit hashing -------------------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one FNV-1a-64. Its values are JIT disk-cache keys, serve plan-cache
/// keys, shard frame checksums and the serve `result_fnv`, so they must
/// never change (tests/support/HashTest.cpp pins the published vectors).
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_HASH_H
#define LCDFG_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lcdfg {
namespace support {

/// The FNV-1a-64 offset basis: the hash of no bytes.
inline constexpr std::uint64_t FnvOffsetBasis = 0xcbf29ce484222325ull;

/// Folds \p Len bytes at \p Data into the hash state \p H, so one hash
/// can continue across several buffers.
inline std::uint64_t fnv1aBytes(const void *Data, std::size_t Len,
                                std::uint64_t H = FnvOffsetBasis) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Len; ++I)
    H = (H ^ Bytes[I]) * 0x100000001b3ull;
  return H;
}

/// fnv1aBytes over \p S. (A separate name: in one overload set,
/// fnv1a("x", H) would bind H to the byte count.)
inline std::uint64_t fnv1a(std::string_view S,
                           std::uint64_t H = FnvOffsetBasis) {
  return fnv1aBytes(S.data(), S.size(), H);
}

/// Folds the eight bytes of \p V, least significant first on any host.
inline std::uint64_t fnv1aU64(std::uint64_t H, std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    H = (H ^ static_cast<unsigned char>(V >> (I * 8))) * 0x100000001b3ull;
  return H;
}

} // namespace support
} // namespace lcdfg

#endif // LCDFG_SUPPORT_HASH_H
