//===- support/StringUtils.h - String helpers for the parser ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used by the omplc pragma parser, the pretty
/// printers, and every JSON writer.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_STRINGUTILS_H
#define LCDFG_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace lcdfg {

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view S);

/// Splits \p S on \p Sep, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view S, char Sep);

/// Splits on \p Sep but only at nesting depth zero with respect to
/// parentheses, braces, and brackets. Used to split "(x,y),(x+1,y)" into
/// the two tuples rather than four fragments.
std::vector<std::string> splitTopLevel(std::string_view S, char Sep);

bool startsWith(std::string_view S, std::string_view Prefix);

/// Consumes \p Prefix from the front of \p S (after trimming); returns true
/// and advances \p S on success.
bool consumePrefix(std::string_view &S, std::string_view Prefix);

/// Escapes \p S for embedding in a JSON string literal (quotes not
/// included): quote, backslash, \n, \r and \t get their short escapes and
/// every other control byte becomes \u00XX, so any byte string
/// round-trips through a JSON parser.
std::string jsonEscape(std::string_view S);

} // namespace lcdfg

#endif // LCDFG_SUPPORT_STRINGUTILS_H
