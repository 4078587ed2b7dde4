//===- tests/support/StringUtilsTest.cpp ----------------------------------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

using namespace lcdfg;

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringUtils, Split) {
  auto Parts = split("a, b ,c", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "b");
  EXPECT_EQ(Parts[2], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("a,,c", ',')[1], "");
}

TEST(StringUtils, SplitTopLevelRespectsNesting) {
  auto Parts = splitTopLevel("(x,y),(x+1,y)", ',');
  ASSERT_EQ(Parts.size(), 2u);
  EXPECT_EQ(Parts[0], "(x,y)");
  EXPECT_EQ(Parts[1], "(x+1,y)");

  Parts = splitTopLevel("f{a,b}, c, (d,e)", ',');
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "f{a,b}");
  EXPECT_EQ(Parts[1], "c");
  EXPECT_EQ(Parts[2], "(d,e)");
}

TEST(StringUtils, SplitTopLevelDropsEmpty) {
  EXPECT_TRUE(splitTopLevel("", ',').empty());
  EXPECT_EQ(splitTopLevel("a,,b", ',').size(), 2u);
}

TEST(StringUtils, ConsumePrefix) {
  std::string_view S = "  #pragma omplc for domain(...)";
  EXPECT_TRUE(consumePrefix(S, "#pragma omplc"));
  EXPECT_EQ(trim(S), "for domain(...)");
  std::string_view T = "nothing";
  EXPECT_FALSE(consumePrefix(T, "#pragma"));
  EXPECT_EQ(T, "nothing");
}

TEST(StringUtils, ParseIntFlagChecksPrefixWholeValueAndRange) {
  std::int64_t V = 7;
  EXPECT_TRUE(parseIntFlag("--port=8080", "--port=", 0, 65535, V));
  EXPECT_EQ(V, 8080);
  V = 7;
  EXPECT_FALSE(parseIntFlag("--size=8", "--port=", 0, 65535, V));
  EXPECT_FALSE(parseIntFlag("--port=", "--port=", 0, 65535, V));
  EXPECT_FALSE(parseIntFlag("--port=80x", "--port=", 0, 65535, V));
  EXPECT_FALSE(parseIntFlag("--port=-1", "--port=", 0, 65535, V));
  EXPECT_FALSE(parseIntFlag("--port=4294967297", "--port=", 0, 65535, V));
  EXPECT_FALSE(
      parseIntFlag("--mb=99999999999999999999", "--mb=", 0, 1 << 20, V));
  EXPECT_EQ(V, 7) << "a rejected value leaves Out untouched";
  EXPECT_TRUE(parseIntFlag("--mb=-3", "--mb=", -3, 3, V));
  EXPECT_EQ(V, -3);
}

namespace {

/// Sets one environment variable for a test and restores "unset" after.
struct ScopedEnv {
  const char *Name;
  ScopedEnv(const char *N, const char *Value) : Name(N) {
    ::setenv(Name, Value, 1);
  }
  ~ScopedEnv() { ::unsetenv(Name); }
};

constexpr const char *TestVar = "LCDFG_TEST_ENV_INT";
constexpr std::int64_t IntMax = std::numeric_limits<int>::max();

} // namespace

TEST(EnvInt, UnsetOrEmptyKeepsDefault) {
  ::unsetenv(TestVar);
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 50), 50);
  ScopedEnv E(TestVar, "");
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 50), 50);
}

TEST(EnvInt, WholeValueInRangeIsTaken) {
  ScopedEnv E(TestVar, "150");
  EXPECT_EQ(envInt(TestVar, 1, IntMax, 2000), 150);
  EXPECT_EQ(envInt(TestVar, 150, 150, 2000), 150);
}

TEST(EnvInt, TrailingUnitKeepsDefault) {
  // atoi read "150ms" as 150.
  ScopedEnv E(TestVar, "150ms");
  EXPECT_EQ(envInt(TestVar, 1, IntMax, 2000), 2000);
}

TEST(EnvInt, NonNumberKeepsDefault) {
  ScopedEnv E(TestVar, "abc");
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 50), 50);
  ScopedEnv Spaced(TestVar, " 5");
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 50), 50);
}

TEST(EnvInt, PastIntRangeKeepsDefault) {
  // strtol then static_cast<int> read 4294967346 (2^32 + 50) as 50.
  ScopedEnv E(TestVar, "4294967346");
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 7), 7);
}

TEST(EnvInt, PastInt64KeepsDefault) {
  ScopedEnv E(TestVar, "99999999999999999999");
  EXPECT_EQ(envInt(TestVar, 0, IntMax, 7), 7);
}

TEST(EnvInt, BelowRangeKeepsDefault) {
  ScopedEnv Zero(TestVar, "0");
  EXPECT_EQ(envInt(TestVar, 1, IntMax, 2000), 2000);
  ScopedEnv Negative(TestVar, "-5");
  EXPECT_EQ(envInt(TestVar, 1, IntMax, 2000), 2000);
  EXPECT_EQ(envInt(TestVar, -5, IntMax, 2000), -5);
}
