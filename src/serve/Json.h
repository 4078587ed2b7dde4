//===- serve/Json.h - Old include path of support/Json.h --------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SERVE_JSON_H
#define LCDFG_SERVE_JSON_H

#include "support/Json.h"

namespace lcdfg {
namespace serve {

// Kept only for e2ebench/bench.cpp, which includes this path and uses these
// four names; delete it when the benchmark switches to support/Json.h.
using support::JsonValue;
using support::parseJson;
using support::jsonEscape;
using support::jsonField;

} // namespace serve
} // namespace lcdfg

#endif // LCDFG_SERVE_JSON_H
