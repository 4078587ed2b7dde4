//===- tests/parser/PragmaParserTest.cpp ----------------------------------===//

#include "parser/PragmaParser.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

using namespace lcdfg;
using parser::parseLoopChain;

namespace {

const char *Figure1Source = R"(
#pragma omplc parallel(fuse)
{
#pragma omplc for domain(0:X, 0:Y-1) with (x, y) \
    write VAL_1{(x,y)} read VAL_0{(x,y)}
S1: VAL_1(x,y) = func1(VAL_0(x,y));

#pragma omplc for domain(0:X, 0:Y-1) with (x, y) \
    write VAL_2{(x,y)} read VAL_1{(x,y)}
S2: VAL_2(x,y) = func2(VAL_1(x,y));

#pragma omplc for domain(0:X-1, 0:Y-1) with (x, y) \
    write VAL_3{(x,y)} read VAL_2{(x,y),(x+1,y)}
S3: VAL_3(x,y) = func3(VAL_2(x,y), VAL_2(x+1,y));
}
)";

} // namespace

TEST(PragmaParser, ParsesFigure1) {
  parser::ParseResult R = parseLoopChain(Figure1Source);
  ASSERT_TRUE(R) << R.Error << " at line " << R.Line;
  const ir::LoopChain &Chain = *R.Chain;
  EXPECT_EQ(Chain.scheduleHint(), "fuse");
  ASSERT_EQ(Chain.numNests(), 3u);
  EXPECT_EQ(Chain.nest(0).Name, "S1");
  EXPECT_EQ(Chain.nest(2).Name, "S3");
  EXPECT_EQ(Chain.nest(0).BodyText, "VAL_1(x,y) = func1(VAL_0(x,y));");
}

TEST(PragmaParser, DomainOrderConvention) {
  parser::ParseResult R = parseLoopChain(Figure1Source);
  ASSERT_TRUE(R);
  // with (x, y): y is outermost by default, so the domain dims are (y, x).
  const poly::BoxSet &D = R.Chain->nest(0).Domain;
  ASSERT_EQ(D.rank(), 2u);
  EXPECT_EQ(D.dim(0).Name, "y");
  EXPECT_EQ(D.dim(1).Name, "x");
  EXPECT_EQ(D.dim(1).Upper.toString(), "X");
  EXPECT_EQ(D.dim(0).Upper.toString(), "Y-1");
}

TEST(PragmaParser, StencilOffsets) {
  parser::ParseResult R = parseLoopChain(Figure1Source);
  ASSERT_TRUE(R);
  const ir::LoopNest &S3 = R.Chain->nest(2);
  ASSERT_EQ(S3.Reads.size(), 1u);
  ASSERT_EQ(S3.Reads[0].Offsets.size(), 2u);
  // Offsets are stored in domain order (y, x).
  EXPECT_EQ(S3.Reads[0].Offsets[0], (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(S3.Reads[0].Offsets[1], (std::vector<std::int64_t>{0, 1}));
}

TEST(PragmaParser, StorageClassification) {
  parser::ParseResult R = parseLoopChain(Figure1Source);
  ASSERT_TRUE(R);
  EXPECT_EQ(R.Chain->array("VAL_0").Kind, ir::StorageKind::PersistentInput);
  EXPECT_EQ(R.Chain->array("VAL_1").Kind, ir::StorageKind::Temporary);
  EXPECT_EQ(R.Chain->array("VAL_3").Kind, ir::StorageKind::PersistentOutput);
}

TEST(PragmaParser, ExplicitOrderClause) {
  const char *Src = R"(
#pragma omplc for domain(0:N-1, 0:N-1, 0:N-1) with (x, y, z) \
    order(x, z, y) write A{(x,y,z)} read B{(x,y,z)}
A(x,y,z) = f(B(x,y,z));
)";
  parser::ParseResult R = parseLoopChain(Src);
  ASSERT_TRUE(R) << R.Error;
  const poly::BoxSet &D = R.Chain->nest(0).Domain;
  EXPECT_EQ(D.dim(0).Name, "x");
  EXPECT_EQ(D.dim(1).Name, "z");
  EXPECT_EQ(D.dim(2).Name, "y");
}

TEST(PragmaParser, ThreeDimensionalDomain) {
  const char *Src = R"(
#pragma omplc for domain(0:X+1, 0:Y, 0:Z) with (x, y, z) \
    write F{(x,y,z)} read V{(x-2,y,z),(x-1,y,z),(x,y,z),(x+1,y,z)}
F(x,y,z) = flux(V);
)";
  parser::ParseResult R = parseLoopChain(Src);
  ASSERT_TRUE(R) << R.Error;
  const ir::LoopNest &Nest = R.Chain->nest(0);
  // Default order: z outermost.
  EXPECT_EQ(Nest.Domain.dim(0).Name, "z");
  EXPECT_EQ(Nest.Domain.dim(2).Name, "x");
  EXPECT_EQ(Nest.Domain.dim(2).Upper.toString(), "X+1");
  ASSERT_EQ(Nest.Reads[0].Offsets.size(), 4u);
  EXPECT_EQ(Nest.Reads[0].Offsets[0],
            (std::vector<std::int64_t>{0, 0, -2}));
}

TEST(PragmaParser, UnlabeledStatementsGetNames) {
  const char *Src = R"(
#pragma omplc for domain(0:N) with (i) write A{(i)} read B{(i)}
A(i) = B(i);
)";
  parser::ParseResult R = parseLoopChain(Src);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Chain->nest(0).Name, "S1");
}

struct ErrorCase {
  const char *Source;
  const char *ExpectSubstring;
};

// Print the expected diagnostic instead of gtest's default byte dump, whose
// pointer bytes change from run to run.
void PrintTo(const ErrorCase &C, std::ostream *OS) {
  *OS << '"' << C.ExpectSubstring << '"';
}

// Name each case after its expected diagnostic ("missing domain" ->
// missing_domain) so test names are stable across builds and runs.
std::string errorCaseName(const ::testing::TestParamInfo<ErrorCase> &Info) {
  std::string Name = Info.param.ExpectSubstring;
  for (char &Ch : Name)
    if (!std::isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

class PragmaParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(PragmaParserErrors, Reports) {
  parser::ParseResult R = parseLoopChain(GetParam().Source);
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find(GetParam().ExpectSubstring), std::string::npos)
      << "got: " << R.Error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PragmaParserErrors,
    ::testing::Values(
        ErrorCase{"#pragma omplc for with (x) write A{(x)}\nA(x)=1;",
                  "missing domain"},
        ErrorCase{"#pragma omplc for domain(0:N) write A{(x)}\nA(x)=1;",
                  "missing with"},
        ErrorCase{"#pragma omplc for domain(0:N, 0:N) with (x) "
                  "write A{(x)}\nA(x)=1;",
                  "arity mismatch"},
        ErrorCase{"#pragma omplc for domain(0:N) with (x) read B{(x)}\nx;",
                  "missing write"},
        ErrorCase{"#pragma omplc for domain(0:N) with (x) "
                  "write A{(2x)} read B{(x)}\nA;",
                  "must be iterator"},
        ErrorCase{"", "no loop nests"}),
    errorCaseName);

TEST(PragmaParserDiagnostics, ErrorsCarryColumnAndSnippet) {
  // The malformed domain bound sits mid-line; the diagnostic must point a
  // 1-based column into the logical (continuation-joined) source line.
  parser::ParseResult R = parseLoopChain(
      "#pragma omplc for domain(0:N, oops) with (x, y) \\\n"
      "    write A{(x,y)} read B{(x,y)}\n"
      "S1: A(x,y) = f(B(x,y));\n");
  ASSERT_FALSE(R);
  EXPECT_GE(R.Line, 1u);
  ASSERT_GT(R.Column, 0u) << R.Error;
  ASSERT_FALSE(R.Snippet.empty());
  EXPECT_LE(R.Column, R.Snippet.size());
  // The column lands on (or inside) the offending clause text.
  EXPECT_NE(R.Snippet.find("oops"), std::string::npos);
  EXPECT_GE(R.Column, R.Snippet.find("domain") + 1);
}

TEST(PragmaParserDiagnostics, FormattedRendersAlignedCaret) {
  parser::ParseResult R = parseLoopChain(
      "#pragma omplc for domain(0:N) with (x) write A{(x)} read B{bad}\n"
      "S1: A(x) = f(B(x));\n");
  ASSERT_FALSE(R);
  ASSERT_GT(R.Column, 0u);
  std::string F = R.formatted();
  EXPECT_NE(F.find("line "), std::string::npos) << F;
  EXPECT_NE(F.find("column "), std::string::npos) << F;
  EXPECT_NE(F.find(R.Snippet), std::string::npos) << F;
  // The caret line: newline, (Column - 1) spaces inside the indented
  // snippet block, then '^'.
  std::size_t Caret = F.rfind('^');
  ASSERT_NE(Caret, std::string::npos) << F;
  std::size_t LineStart = F.rfind('\n', Caret);
  ASSERT_NE(LineStart, std::string::npos);
  std::size_t SnippetPos = F.find(R.Snippet);
  std::size_t SnippetLineStart = F.rfind('\n', SnippetPos);
  ASSERT_NE(SnippetLineStart, std::string::npos);
  std::size_t Indent = SnippetPos - SnippetLineStart - 1;
  EXPECT_EQ(Caret - LineStart - 1, Indent + R.Column - 1)
      << "caret must sit under column " << R.Column << ":\n"
      << F;
}

TEST(PragmaParserDiagnostics, StatusFoldsIntoCommonVocabulary) {
  parser::ParseResult Bad = parseLoopChain("#pragma omplc for\nS: x;\n");
  ASSERT_FALSE(Bad);
  support::Status S = Bad.status();
  EXPECT_EQ(S.code(), support::ErrorCode::Parse);
  EXPECT_FALSE(S.message().empty());

  parser::ParseResult Good = parseLoopChain(Figure1Source);
  ASSERT_TRUE(Good) << Good.Error;
  EXPECT_TRUE(Good.status().isOk());
}

TEST(PragmaParserDiagnostics, HostileInputsNeverAbort) {
  // A grab-bag of malformed fragments that historically hit asserts
  // (empty stencils, rank mismatches) must all come back as diagnostics.
  const char *Hostile[] = {
      "#pragma omplc for domain(0:N) with (x) write A{} \nS: x;\n",
      "#pragma omplc for domain(0:N) with (x) write A{(x,y)}\nS: x;\n",
      "#pragma omplc for domain(0:N) with (x) write A{(x)} "
      "read B{(x,y,z)}\nS: x;\n",
      "#pragma omplc for domain() with () write A{()}\nS: x;\n",
      "#pragma omplc parallel(fuse)\n{\n",
      "{}",
  };
  for (const char *Source : Hostile) {
    parser::ParseResult R = parseLoopChain(Source);
    EXPECT_FALSE(R) << "hostile input parsed: " << Source;
    EXPECT_FALSE(R.Error.empty());
  }
}
