//===- verify/Diagnostics.cpp - Verifier diagnostics ----------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "verify/Diagnostics.h"

#include "support/Json.h"

#include <sstream>

using namespace lcdfg;
using namespace lcdfg::verify;

const char *verify::severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

namespace {

void printPoint(std::ostringstream &OS, const std::vector<std::int64_t> &Pt) {
  OS << "(";
  for (std::size_t I = 0; I < Pt.size(); ++I)
    OS << (I ? "," : "") << Pt[I];
  OS << ")";
}

/// "Key":[x,y,...], or "" (left out) for an empty point.
std::string jsonPoint(std::string_view Key,
                      const std::vector<std::int64_t> &Pt) {
  if (Pt.empty())
    return "";
  std::vector<std::string> Coords;
  for (std::int64_t C : Pt)
    Coords.push_back(support::jsonValue(C));
  return support::jsonNested(Key, support::jsonArray(Coords));
}

/// "Key":N, or "" (left out) for an unset index.
std::string jsonIndex(std::string_view Key, int Index) {
  return Index >= 0 ? support::jsonField(Key, Index) : "";
}

} // namespace

std::string Diagnostic::toString() const {
  std::ostringstream OS;
  OS << severityName(Sev) << "[" << CheckId << "]";
  if (Task >= 0)
    OS << " task " << Task;
  if (Instr >= 0)
    OS << " instr " << Instr;
  if (Space >= 0)
    OS << " space " << Space;
  if (!Array.empty())
    OS << " array " << Array;
  OS << ": " << Message;
  if (!Point.empty()) {
    OS << " at ";
    printPoint(OS, Point);
  }
  if (OtherTask >= 0 || OtherInstr >= 0 || !OtherPoint.empty()) {
    OS << "; other";
    if (OtherTask >= 0)
      OS << " task " << OtherTask;
    if (OtherInstr >= 0)
      OS << " instr " << OtherInstr;
    if (!OtherPoint.empty()) {
      OS << " at ";
      printPoint(OS, OtherPoint);
    }
  }
  return OS.str();
}

std::size_t Diagnostics::count(Severity Sev) const {
  std::size_t N = 0;
  for (const Diagnostic &D : Diags)
    if (D.Sev == Sev)
      ++N;
  return N;
}

std::string Diagnostics::toString() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags)
    OS << D.toString() << "\n";
  OS << "verify: " << count(Severity::Error) << " error(s), "
     << count(Severity::Warning) << " warning(s), " << count(Severity::Note)
     << " note(s)\n";
  return OS.str();
}

std::string Diagnostics::toJson() const {
  using support::jsonField;
  std::vector<std::string> Items;
  for (const Diagnostic &D : Diags)
    Items.push_back(support::jsonObject(
        {jsonField("severity", severityName(D.Sev)),
         jsonField("check", D.CheckId), jsonField("message", D.Message),
         jsonIndex("task", D.Task), jsonIndex("instr", D.Instr),
         jsonIndex("other_task", D.OtherTask),
         jsonIndex("other_instr", D.OtherInstr), jsonIndex("space", D.Space),
         D.Array.empty() ? "" : jsonField("array", D.Array),
         jsonPoint("point", D.Point),
         jsonPoint("other_point", D.OtherPoint)}));
  return support::jsonObject(
      {support::jsonNested("diagnostics", support::jsonArray(Items)),
       jsonField("errors", count(Severity::Error)),
       jsonField("warnings", count(Severity::Warning)),
       jsonField("notes", count(Severity::Note))});
}
