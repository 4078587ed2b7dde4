//===- tests/support/HashTest.cpp -----------------------------------------===//
//
// The one FNV-1a-64 implementation. Its values are JIT disk-cache keys,
// serve plan-cache keys, shard frame checksums and the serve result_fnv,
// so the published vectors are pinned here.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using namespace lcdfg::support;

TEST(Fnv1a, MatchesTheReferenceVectors) {
  // Offset basis for empty input; the single-byte vectors are from the
  // published FNV-1a test suite.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(""), FnvOffsetBasis);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  const char A = 'a';
  EXPECT_EQ(fnv1aBytes(&A, 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, ContinuesAcrossBuffers) {
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

TEST(Fnv1a, U64FoldsLittleEndianBytes) {
  const std::uint64_t V = 0x0807060504030201ull;
  const unsigned char Bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(fnv1aU64(FnvOffsetBasis, V), fnv1aBytes(Bytes, sizeof(Bytes)));
  const unsigned char Zeros[8] = {};
  EXPECT_EQ(fnv1aU64(FnvOffsetBasis, 0), fnv1aBytes(Zeros, sizeof(Zeros)));
}
