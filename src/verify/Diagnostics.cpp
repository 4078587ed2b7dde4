//===- verify/Diagnostics.cpp - Verifier diagnostics ----------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "verify/Diagnostics.h"

#include "support/StringUtils.h"

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

void jsonPoint(std::ostringstream &OS, const char *Key,
               const std::vector<std::int64_t> &Pt) {
  OS << ",\"" << Key << "\":[";
  for (std::size_t I = 0; I < Pt.size(); ++I)
    OS << (I ? "," : "") << Pt[I];
  OS << "]";
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
  std::ostringstream OS;
  OS << "{\"diagnostics\":[";
  for (std::size_t I = 0; I < Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    OS << (I ? "," : "") << "{\"severity\":\"" << severityName(D.Sev)
       << "\",\"check\":\"" << jsonEscape(D.CheckId) << "\",\"message\":\""
       << jsonEscape(D.Message) << "\"";
    if (D.Task >= 0)
      OS << ",\"task\":" << D.Task;
    if (D.Instr >= 0)
      OS << ",\"instr\":" << D.Instr;
    if (D.OtherTask >= 0)
      OS << ",\"other_task\":" << D.OtherTask;
    if (D.OtherInstr >= 0)
      OS << ",\"other_instr\":" << D.OtherInstr;
    if (D.Space >= 0)
      OS << ",\"space\":" << D.Space;
    if (!D.Array.empty())
      OS << ",\"array\":\"" << jsonEscape(D.Array) << "\"";
    if (!D.Point.empty())
      jsonPoint(OS, "point", D.Point);
    if (!D.OtherPoint.empty())
      jsonPoint(OS, "other_point", D.OtherPoint);
    OS << "}";
  }
  OS << "],\"errors\":" << count(Severity::Error)
     << ",\"warnings\":" << count(Severity::Warning)
     << ",\"notes\":" << count(Severity::Note) << "}";
  return OS.str();
}
