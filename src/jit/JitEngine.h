//===- jit/JitEngine.h - Host-compiler row-kernel backend -------*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles RowPlan instructions to specialized shared objects at run
/// time. For each codegen::RowKernelDesc the engine emits one fused row
/// walker via codegen::printRowKernel, invokes the host compiler (`cc` by
/// default) to build a `.so`, dlopens it, and hands back the resulting
/// codegen::RowKernel. Objects are cached on disk keyed by (ABI version,
/// compiler identity, flags, descriptor), so repeat runs skip compilation
/// entirely; an in-memory map on top makes repeat requests within one
/// process a hash lookup.
///
/// Every failure mode — no compiler, unwritable cache, compile error,
/// corrupt object — surfaces as an E017 Expected error, never a crash: the
/// caller (exec::RowPlan::analyze) falls back to the interpreted batched
/// bodies, and the recovery ladder reports it as L008.
///
/// Environment knobs (read by EngineOptions::fromEnvironment, i.e. the
/// process-wide Engine::global()):
///   LCDFG_JIT       on|off      also steers exec::effectiveKernelMode
///   LCDFG_JIT_CC    <compiler>  host compiler command (default "cc")
///   LCDFG_JIT_DIR   <path>      cache directory (default under $TMPDIR)
///   LCDFG_JIT_FLAGS <flags>     extra compiler flags, part of the cache key
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_JIT_JITENGINE_H
#define LCDFG_JIT_JITENGINE_H

#include "codegen/CPrinter.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace lcdfg {
namespace jit {

/// Construction-time knobs. Tests build private engines with temp cache
/// dirs or dead compilers; everything else uses Engine::global(), which
/// reads fromEnvironment() once.
struct EngineOptions {
  /// Master switch: a disabled engine refuses every request with E017
  /// (the ladder then descends L008, exactly as if no compiler existed).
  bool Enabled = true;
  /// Host compiler command. Probed lazily with a tiny compile; a command
  /// that cannot produce a loadable object marks the engine unavailable.
  std::string Compiler = "cc";
  /// Cache directory; created on demand. Empty selects
  /// $LCDFG_JIT_DIR, else $TMPDIR/lcdfg-jit-<uid>, else /tmp/....
  std::string CacheDir;
  /// Extra flags appended to the compile line (and folded into the cache
  /// key, so changing them invalidates cached objects).
  std::string ExtraFlags;

  static EngineOptions fromEnvironment();
};

/// The compilation cache + dlopen loader. Thread-safe; kernels returned
/// stay valid for the engine's lifetime (handles are never dlclosed).
class Engine {
public:
  Engine();
  explicit Engine(EngineOptions OptsIn);
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// The process-wide engine, configured from the environment at first
  /// use. RunOptions::Jit == nullptr resolves here.
  static Engine &global();

  /// True when the host compiler produced and loaded a probe object.
  /// Cached after the first call; cheap thereafter.
  bool available();
  /// Why available() is false ("" while it is true).
  std::string unavailableReason();

  /// The fused whole-row kernel for \p Desc (codegen::printRowKernel),
  /// compiling at most once per (statement set, shape, flags) class. E017
  /// on any failure.
  support::Expected<codegen::RowKernel>
  rowKernel(const codegen::RowKernelDesc &Desc);

  /// Monotonic per-engine tallies (the Tracer counters mirror these when
  /// tracing is armed, but tests read them directly).
  struct Stats {
    std::int64_t Compiled = 0;  ///< Host-compiler invocations that built.
    std::int64_t CacheHits = 0; ///< Requests served without compiling.
    std::int64_t Failures = 0;  ///< Requests that returned E017.
  };
  Stats stats() const;

  /// The resolved cache directory (for tests that corrupt objects).
  const std::string &cacheDir() const { return Opts.CacheDir; }
  /// The probed compiler identity line folded into cache keys.
  std::string compilerVersion();

private:
  /// Cache-or-compile under Mu: in-memory map, then the on-disk object,
  /// then \p Render + host compiler. The returned pointer is the raw dlsym
  /// result, cast by the caller to its ABI.
  support::Expected<void *>
  fetchLocked(std::uint64_t Key,
              const std::function<std::string(const std::string &)> &Render);
  support::Expected<void *> load(const std::string &SoPath,
                                 const std::string &Symbol);
  support::Status compileTo(const std::string &CPath,
                            const std::string &SoPath);
  support::Status probe();
  void resolveVersionLocked();

  EngineOptions Opts;
  std::mutex Mu;
  bool Probed = false;
  support::Status ProbeStatus; ///< ok() once the probe succeeded.
  std::string Version;         ///< First --version line, or "unknown".
  std::string MarchFlag;       ///< "-march=native" when the probe took it.
  std::uint64_t KeyBase = 0;   ///< ABI+compiler+flags prefix of every key.
  std::unordered_map<std::uint64_t, void *> Loaded;
  Stats Tally;
};

} // namespace jit
} // namespace lcdfg

#endif // LCDFG_JIT_JITENGINE_H
