//===- support/StringUtils.h - String helpers for the parser ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used by the omplc pragma parser, the pretty
/// printers, every JSON writer, and the tools' numeric flags and
/// environment settings.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_STRINGUTILS_H
#define LCDFG_SUPPORT_STRINGUTILS_H

#include <cstdint>
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

/// Parse all of \p S as a base-10 integer or a finite decimal number. False,
/// leaving \p Out untouched, on an empty string, anything but the number
/// (no leading whitespace, no trailing characters), or overflow — so a
/// command-line value like "16x" or "abc" is an error instead of 16 or 0.
bool parseInt(std::string_view S, std::int64_t &Out);
bool parseDouble(std::string_view S, double &Out);

/// True when \p Arg is \p Prefix followed by a whole integer (parseInt) in
/// [\p Lo, \p Hi], stored in \p Out. A command-line flag whose value its
/// setting cannot hold ("--port=4294967297") then matches no flag at all,
/// so the tool's usage error catches it.
bool parseIntFlag(std::string_view Arg, std::string_view Prefix,
                  std::int64_t Lo, std::int64_t Hi, std::int64_t &Out);

/// The environment variable \p Name as a whole integer (parseInt) in
/// [\p Lo, \p Hi], else \p Default: an unset, empty, malformed ("150ms")
/// or out-of-range value leaves the setting at its default instead of
/// half-applying it.
std::int64_t envInt(const char *Name, std::int64_t Lo, std::int64_t Hi,
                    std::int64_t Default);

} // namespace lcdfg

#endif // LCDFG_SUPPORT_STRINGUTILS_H
