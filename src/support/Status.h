//===- support/Status.h - Recoverable structured errors ---------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recoverable-error vocabulary of the fail-operational execution
/// layer. Historically every illegal input and internal inconsistency
/// funneled into reportFatalError()/std::abort(); the types here carry the
/// same information as a value instead, so hostile inputs (malformed
/// pragmas, unprovable row-batch caps, verifier-flagged plans, truncated
/// storage) surface as diagnostics the caller can act on — retry down the
/// degradation ladder, reject one configuration of a sweep, or print a
/// structured error — rather than killing the process.
///
///  * Status: success or an ErrorCode plus a message and a context chain
///    ("while lowering nest S2" / "while building storage plan").
///  * Expected<T>: a T or a Status. expect() unwraps or aborts with the
///    full chain, preserving the old fatal behaviour at call sites that
///    genuinely cannot recover.
///  * StatusError: the exception carrier used inside deep call stacks
///    (plan lowering, storage resolution) where threading Expected through
///    every helper would obscure the algorithm. Public tryX() entry points
///    catch it at the module boundary and return Expected; the runner's
///    scheduler already propagates worker exceptions, so injected faults
///    ride the same rails.
///
/// Error codes are stable strings (E0xx) like the verifier's check ids and
/// the runner's ladder reason codes; tests and CI match on them.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_STATUS_H
#define LCDFG_SUPPORT_STATUS_H

#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lcdfg {
namespace support {

/// Stable error categories. The printed form is code().str(), e.g.
/// "E001-parse"; docs/ROBUSTNESS.md documents each.
enum class ErrorCode {
  None = 0,
  Parse,             ///< E001: pragma/script text rejected.
  InvalidChain,      ///< E002: malformed LoopChain (empty stencil, ...).
  UnknownArray,      ///< E003: array name not declared/known.
  GraphInvalid,      ///< E004: M2DFG invariant broken.
  IllegalTransform,  ///< E005: reschedule/fusion precondition failed.
  TilingInvalid,     ///< E006: tiling precondition failed.
  StorageInvalid,    ///< E007: storage plan/extent inconsistency.
  PlanInvalid,       ///< E008: execution plan inconsistency (incl. a plan
                     ///  that does not fit its concrete storage).
  KernelMissing,     ///< E009: unknown kernel id / missing body.
  DependenceCycle,   ///< E010: task graph is not a DAG.
  VerifierRejected,  ///< E011: static verifier flagged the plan (strict).
  FaultInjected,     ///< E012: a FaultInjector-armed fault fired.
  GuardTripped,      ///< E013: hardened-mode redzone/NaN guard tripped.
  Exhausted,         ///< E014: every degradation rung failed.
  Internal,          ///< E015: internal inconsistency (bug).
  MemBudgetInfeasible, ///< E016: live-temporary budget cannot admit the
                       ///  plan (a single task exceeds it, or the
                       ///  scheduler wedged with only over-budget tasks).
  JitUnavailable,    ///< E017: row-kernel JIT cannot compile or load
                     ///  (no host compiler, cache dir unwritable, dlopen
                     ///  failure). Always recoverable: the ladder falls
                     ///  back to the interpreted batched path (L008).
  PeerLost,          ///< E018: a shard peer process died mid-protocol
                     ///  (EOF/reset on its channel, or the coordinator
                     ///  reaped the child). Recoverable: the coordinator
                     ///  restores the pre-step snapshot and re-runs
                     ///  single-process (L009).
  ExchangeTimeout,   ///< E019: a ghost exchange missed its deadline
                     ///  (LCDFG_SHARD_TIMEOUT_MS) after bounded resend
                     ///  retries, or every retransmit of a frame arrived
                     ///  truncated/corrupt. Recoverable like E018 (L009).
  Protocol,          ///< E020: a serve-protocol framing violation — an
                     ///  oversized or unterminated request line, text that
                     ///  is not a JSON object, a field of the wrong type,
                     ///  an unknown command, or a response the client
                     ///  could not parse back. Always scoped to the one
                     ///  request (or connection) that violated the
                     ///  grammar; the daemon keeps serving.
};

/// Stable "E0xx-name" string for \p Code.
std::string_view errorCodeName(ErrorCode Code);

/// Success, or an error code with a message and a context chain. Contexts
/// are appended outermost-last via withContext(), so the rendered form
/// reads innermost-first: "E007-storage: array without extent: A (while
/// building storage plan) (while compiling fig1:original)".
class [[nodiscard]] Status {
public:
  Status() = default;

  static Status ok() { return Status(); }
  static Status error(ErrorCode Code, std::string Msg) {
    Status S;
    S.Code = Code;
    S.Msg = std::move(Msg);
    return S;
  }

  bool isOk() const { return Code == ErrorCode::None; }
  explicit operator bool() const { return isOk(); }

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Msg; }
  const std::string &subcode() const { return Sub; }
  const std::vector<std::string> &contexts() const { return Chain; }

  /// Appends one context frame (no-op on success).
  Status &withContext(std::string Frame) {
    if (!isOk())
      Chain.push_back(std::move(Frame));
    return *this;
  }

  /// Attaches a stable machine-readable discriminator within an error
  /// code (e.g. which of the E013 guards tripped), so callers classify
  /// structurally instead of matching message text (no-op on success).
  Status &withSubcode(std::string Subcode) {
    if (!isOk())
      Sub = std::move(Subcode);
    return *this;
  }

  /// "E00x-name: message (while ...) (while ...)", or "ok".
  std::string toString() const;
  /// {"code":"E00x-name","message":"...","context":["...",...]} — the
  /// shape lcdfg-lint --json and the run report embed. A non-empty
  /// subcode is emitted as "subcode":"...".
  std::string toJson() const;

  /// Aborts via reportFatalError with the rendered chain when this is an
  /// error; for call sites that cannot recover (the pre-Status behaviour).
  void expectOk(std::string_view What) const;

private:
  ErrorCode Code = ErrorCode::None;
  std::string Msg;
  std::string Sub;
  std::vector<std::string> Chain;
};

/// The exception carrier for deep call stacks. Module-boundary tryX()
/// functions catch it and return the Status as a value; tools catch it at
/// main() and print a structured diagnostic.
class StatusError : public std::exception {
public:
  explicit StatusError(Status S) : S(std::move(S)), Rendered(this->S.toString()) {}
  const Status &status() const { return S; }
  const char *what() const noexcept override { return Rendered.c_str(); }

private:
  Status S;
  std::string Rendered;
};

/// Throws StatusError{Code, Msg}. The replacement for reportFatalError at
/// every recoverable site.
[[noreturn]] void raise(ErrorCode Code, std::string Msg);

/// A T or a Status (never both). Modeled on llvm::Expected, minus the
/// must-check machinery: checking is enforced socially by the [[nodiscard]]
/// and by expect(), which converts an unhandled error into the old fatal
/// abort (with the full context chain) instead of undefined behaviour.
template <typename T> class [[nodiscard]] Expected {
public:
  Expected(T Value) : Val(std::move(Value)) {}
  Expected(Status Err) : Err(std::move(Err)) {
    if (this->Err.isOk())
      this->Err = Status::error(ErrorCode::Internal,
                                "Expected constructed from an ok Status");
  }

  bool hasValue() const { return Val.has_value(); }
  explicit operator bool() const { return hasValue(); }

  T &value() & { return *Val; }
  const T &value() const & { return *Val; }
  T &&value() && { return std::move(*Val); }
  T &operator*() & { return *Val; }
  const T &operator*() const & { return *Val; }
  T *operator->() { return &*Val; }
  const T *operator->() const { return &*Val; }

  const Status &error() const { return Err; }
  Status takeError() { return std::move(Err); }

  /// Unwraps, aborting with the context chain on error (the pre-Status
  /// fatal behaviour for callers that cannot recover).
  T expect(std::string_view What) && {
    Err.expectOk(What);
    return std::move(*Val);
  }

private:
  std::optional<T> Val;
  Status Err;
};

/// Runs \p Fn (returning T), converting a thrown StatusError into an
/// Expected error. The standard module-boundary adapter:
///   return support::tryInvoke([&] { return fromAstImpl(...); });
template <typename Fn> auto tryInvoke(Fn &&F) -> Expected<decltype(F())> {
  try {
    return std::forward<Fn>(F)();
  } catch (const StatusError &E) {
    return E.status();
  }
}

} // namespace support
} // namespace lcdfg

#endif // LCDFG_SUPPORT_STATUS_H
