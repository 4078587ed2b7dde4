//===- support/Status.cpp -------------------------------------------------===//

#include "support/Status.h"

#include "support/Errors.h"
#include "support/Json.h"

#include <sstream>

using namespace lcdfg;
using namespace lcdfg::support;

std::string_view support::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::None:
    return "ok";
  case ErrorCode::Parse:
    return "E001-parse";
  case ErrorCode::InvalidChain:
    return "E002-invalid-chain";
  case ErrorCode::UnknownArray:
    return "E003-unknown-array";
  case ErrorCode::GraphInvalid:
    return "E004-graph-invalid";
  case ErrorCode::IllegalTransform:
    return "E005-illegal-transform";
  case ErrorCode::TilingInvalid:
    return "E006-tiling-invalid";
  case ErrorCode::StorageInvalid:
    return "E007-storage-invalid";
  case ErrorCode::PlanInvalid:
    return "E008-plan-invalid";
  case ErrorCode::KernelMissing:
    return "E009-kernel-missing";
  case ErrorCode::DependenceCycle:
    return "E010-dependence-cycle";
  case ErrorCode::VerifierRejected:
    return "E011-verifier-rejected";
  case ErrorCode::FaultInjected:
    return "E012-fault-injected";
  case ErrorCode::GuardTripped:
    return "E013-guard-tripped";
  case ErrorCode::Exhausted:
    return "E014-exhausted";
  case ErrorCode::Internal:
    return "E015-internal";
  case ErrorCode::MemBudgetInfeasible:
    return "E016-mem-budget-infeasible";
  case ErrorCode::JitUnavailable:
    return "E017-jit-unavailable";
  case ErrorCode::PeerLost:
    return "E018-peer-lost";
  case ErrorCode::ExchangeTimeout:
    return "E019-exchange-timeout";
  case ErrorCode::Protocol:
    return "E020-protocol";
  }
  return "E015-internal";
}

std::string Status::toString() const {
  if (isOk())
    return "ok";
  std::ostringstream OS;
  OS << errorCodeName(Code) << ": " << Msg;
  for (const std::string &Frame : Chain)
    OS << " (while " << Frame << ")";
  return OS.str();
}

std::string Status::toJson() const {
  std::vector<std::string> Context;
  for (const std::string &Frame : Chain)
    Context.push_back(jsonValue(Frame));
  return jsonObject({jsonField("code", errorCodeName(Code)),
                     jsonField("message", Msg),
                     Sub.empty() ? "" : jsonField("subcode", Sub),
                     jsonNested("context", jsonArray(Context))});
}

void Status::expectOk(std::string_view What) const {
  if (isOk())
    return;
  reportFatalError(std::string(What) + ": " + toString());
}

void support::raise(ErrorCode Code, std::string Msg) {
  throw StatusError(Status::error(Code, std::move(Msg)));
}
