//===- support/Json.h - The one JSON reader and writer ----------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place that decides how JSON is read and written: reports, serve
/// requests and responses, tool JSON lines and bench files all go through
/// here. (The Chrome trace writes its own fixed-point timestamps but
/// escapes through here.)
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_JSON_H
#define LCDFG_SUPPORT_JSON_H

#include "support/Status.h"

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lcdfg {
namespace support {

/// One parsed JSON value. A tagged aggregate rather than a variant: the
/// protocol's values are tiny and short-lived, so the few wasted bytes
/// buy simple, non-throwing accessors.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str; ///< Kind::String; the literal text for Kind::Number
  std::vector<std::pair<std::string, JsonValue>> Members; ///< Kind::Object
  std::vector<JsonValue> Items;                           ///< Kind::Array

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNull() const { return K == Kind::Null; }

  /// First member named \p Key (nullptr when absent or not an object).
  const JsonValue *find(std::string_view Key) const;

  /// Typed reads with defaults; a present member of the wrong type reads
  /// as the default (callers that must distinguish use find()). asInt
  /// reads an integer literal exactly and truncates any other number that
  /// fits in 64 bits.
  std::string asString(std::string_view Def = "") const;
  std::int64_t asInt(std::int64_t Def = 0) const;
  double asDouble(double Def = 0.0) const;
  bool asBool(bool Def = false) const;
};

/// Parses \p Text as exactly one JSON value (leading/trailing whitespace
/// allowed, nothing else). Hardened for hostile input: nesting is capped
/// and every error is an E020-protocol Status with a byte offset, never an
/// exception. \uXXXX escapes decode to UTF-8.
Expected<JsonValue> parseJson(std::string_view Text);

/// Escapes \p S for embedding in a JSON string literal (quotes not
/// included): quote, backslash, \n, \r and \t get their short escapes and
/// every other control byte becomes \u00XX, so any byte string
/// round-trips through parseJson.
std::string jsonEscape(std::string_view S);

/// One rendered value: a quoted, escaped string; true / false; an exact
/// integer; a double in the shortest form that parses back to the same
/// bits (std::to_chars), or null when it is not finite.
std::string jsonValue(std::string_view S);
std::string jsonValue(const char *S);
std::string jsonValue(bool B);
std::string jsonValue(double D);
template <std::integral Int> std::string jsonValue(Int V) {
  return std::to_string(V);
}

/// One object member, "key":value.
template <typename T>
std::string jsonField(std::string_view Key, const T &Value) {
  return jsonValue(Key) + ":" + jsonValue(Value);
}
/// One object member whose value \p Json is already rendered (a nested
/// jsonObject / jsonArray, some toJson()).
std::string jsonNested(std::string_view Key, std::string_view Json);

/// {f1,f2,...} from jsonField members and [v1,v2,...] from rendered
/// values, in order. Empty pieces are skipped, so an optional member is
/// `Cond ? jsonField(...) : ""`.
std::string jsonObject(const std::vector<std::string> &Fields);
std::string jsonArray(const std::vector<std::string> &Values);
/// jsonObject with one member per line, for files people diff.
std::string jsonObjectLines(const std::vector<std::string> &Fields);

} // namespace support
} // namespace lcdfg

#endif // LCDFG_SUPPORT_JSON_H
