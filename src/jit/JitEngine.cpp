//===- jit/JitEngine.cpp - Host-compiler row-kernel backend ---------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//

#include "jit/JitEngine.h"

#include "obs/Trace.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <dlfcn.h>
#include <unistd.h>

using namespace lcdfg;
using namespace lcdfg::jit;
using support::fnv1a;
using support::fnv1aU64;

namespace fs = std::filesystem;

namespace {

/// Bump when the emitted ABI or the key recipe changes: old cache entries
/// then miss instead of resolving to incompatible objects.
constexpr const char *AbiTag = "lcdfg-jit-abi-1";

/// Flags every compile gets. -ffp-contract=off is load-bearing: fused
/// multiply-adds would change rounding and break the bit-compare gates
/// against the interpreted bodies. -fopenmp-simd honors the pragma without
/// pulling in the OpenMP runtime.
constexpr const char *BaseFlags =
    "-O3 -fPIC -shared -fopenmp-simd -ffp-contract=off";

std::string hexKey(std::uint64_t Key) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Key));
  return Buf;
}

std::string quoted(const std::string &Path) { return "'" + Path + "'"; }

support::Status e017(std::string Msg) {
  return support::Status::error(support::ErrorCode::JitUnavailable,
                                std::move(Msg));
}

/// Atomically materializes \p Text at \p Path (tmp + rename, so concurrent
/// processes sharing a cache dir never observe a torn file).
support::Status writeFileAtomic(const std::string &Path,
                                const std::string &Text) {
  const std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    Out << Text;
    if (!Out)
      return e017("cannot write " + Tmp);
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return e017("cannot rename into " + Path);
  }
  return support::Status::ok();
}

std::string defaultCacheDir() {
  if (const char *Dir = std::getenv("LCDFG_JIT_DIR"); Dir && *Dir)
    return Dir;
  std::string Base = "/tmp";
  if (const char *Tmp = std::getenv("TMPDIR"); Tmp && *Tmp)
    Base = Tmp;
  return Base + "/lcdfg-jit-" + std::to_string(::getuid());
}

} // namespace

EngineOptions EngineOptions::fromEnvironment() {
  EngineOptions O;
  if (const char *V = std::getenv("LCDFG_JIT"); V && *V) {
    const std::string S = V;
    O.Enabled = !(S == "off" || S == "0" || S == "interp");
  }
  if (const char *CC = std::getenv("LCDFG_JIT_CC"); CC && *CC)
    O.Compiler = CC;
  if (const char *Flags = std::getenv("LCDFG_JIT_FLAGS"); Flags && *Flags)
    O.ExtraFlags = Flags;
  O.CacheDir = defaultCacheDir();
  return O;
}

Engine::Engine() : Engine(EngineOptions::fromEnvironment()) {}

Engine::Engine(EngineOptions OptsIn) : Opts(std::move(OptsIn)) {
  if (Opts.CacheDir.empty())
    Opts.CacheDir = defaultCacheDir();
}

// Loaded objects stay mapped for the process lifetime: returned kernel
// pointers may be cached inside compiled RowPlans that outlive the engine.
Engine::~Engine() = default;

Engine &Engine::global() {
  static Engine G;
  return G;
}

/// Caller holds Mu. One popen per engine; "unknown" when the compiler
/// cannot even report a version (the probe will fail right after).
void Engine::resolveVersionLocked() {
  if (!Version.empty())
    return;
  Version = "unknown";
  if (FILE *P = ::popen((Opts.Compiler + " --version 2>/dev/null").c_str(),
                        "r")) {
    char Line[256];
    if (std::fgets(Line, sizeof(Line), P)) {
      std::string S(Line);
      while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
        S.pop_back();
      if (!S.empty())
        Version = S;
    }
    ::pclose(P);
  }
}

std::string Engine::compilerVersion() {
  std::lock_guard<std::mutex> Lock(Mu);
  resolveVersionLocked();
  return Version;
}

support::Status Engine::compileTo(const std::string &CPath,
                                  const std::string &SoPath) {
  const std::string Tmp = SoPath + ".tmp." + std::to_string(::getpid());
  const std::string Log = SoPath + ".log";
  std::ostringstream Cmd;
  Cmd << Opts.Compiler << ' ' << BaseFlags;
  if (!MarchFlag.empty())
    Cmd << ' ' << MarchFlag;
  if (!Opts.ExtraFlags.empty())
    Cmd << ' ' << Opts.ExtraFlags;
  Cmd << " -o " << quoted(Tmp) << ' ' << quoted(CPath) << " 2>"
      << quoted(Log);
  if (std::system(Cmd.str().c_str()) != 0) {
    std::error_code EC;
    fs::remove(Tmp, EC);
    return e017("host compiler failed (see " + Log + ")");
  }
  std::error_code EC;
  fs::rename(Tmp, SoPath, EC);
  if (EC) {
    fs::remove(Tmp, EC);
    return e017("cannot rename compiled object into " + SoPath);
  }
  return support::Status::ok();
}

/// One-time compiler probe under Mu: resolves the version line, checks the
/// base flag set produces a loadable object, and opts into -march=native
/// when the compiler accepts it (vector-width changes cannot alter results:
/// the emitted bodies are elementwise IEEE ops with contraction off).
support::Status Engine::probe() {
  if (Probed)
    return ProbeStatus;
  Probed = true;
  resolveVersionLocked();
  // The key prefix folds in everything environmental that shapes compiled
  // objects; per-request keys extend it with the row descriptor's
  // structural hash. MarchFlag is settled below before the first request
  // can observe KeyBase (rowKernel() probes before keying).
  auto SealKeyBase = [&] {
    KeyBase = fnv1a(AbiTag);
    KeyBase = fnv1a(Opts.Compiler, fnv1a("\x1f", KeyBase));
    KeyBase = fnv1a(Version, fnv1a("\x1f", KeyBase));
    KeyBase = fnv1a(BaseFlags, fnv1a("\x1f", KeyBase));
    KeyBase = fnv1a(MarchFlag, fnv1a("\x1f", KeyBase));
    KeyBase = fnv1a(Opts.ExtraFlags, fnv1a("\x1f", KeyBase));
  };
  SealKeyBase();
  if (!Opts.Enabled) {
    ProbeStatus = e017("JIT disabled (LCDFG_JIT=off)");
    return ProbeStatus;
  }
  std::error_code EC;
  fs::create_directories(Opts.CacheDir, EC);
  if (EC) {
    ProbeStatus = e017("cannot create cache dir " + Opts.CacheDir);
    return ProbeStatus;
  }
  const std::string Pid = std::to_string(::getpid());
  const std::string CPath = Opts.CacheDir + "/probe-" + Pid + ".c";
  const std::string SoPath = Opts.CacheDir + "/probe-" + Pid + ".so";
  const char *Src = "#include <stdint.h>\n"
                    "int64_t lcdfg_jit_probe(int64_t N) {\n"
                    "  int64_t Acc = 0;\n"
                    "#pragma omp simd\n"
                    "  for (int64_t I = 0; I < N; ++I)\n"
                    "    Acc += I;\n"
                    "  return Acc;\n"
                    "}\n";
  if (support::Status S = writeFileAtomic(CPath, Src); !S) {
    ProbeStatus = std::move(S);
    return ProbeStatus;
  }
  ProbeStatus = compileTo(CPath, SoPath);
  if (ProbeStatus) {
    if (void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL)) {
      if (!::dlsym(H, "lcdfg_jit_probe"))
        ProbeStatus = e017("probe object lacks its symbol");
      ::dlclose(H);
    } else {
      ProbeStatus = e017(std::string("probe dlopen failed: ") + ::dlerror());
    }
  }
  if (ProbeStatus) {
    // Vector ISA opt-in: a separate probe, so an unsupported -march flag
    // degrades to portable codegen instead of marking the engine dead.
    MarchFlag = "-march=native";
    if (!compileTo(CPath, SoPath + ".march"))
      MarchFlag.clear();
    fs::remove(SoPath + ".march", EC);
    SealKeyBase(); // MarchFlag is now final.
  }
  fs::remove(CPath, EC);
  fs::remove(SoPath, EC);
  return ProbeStatus;
}

bool Engine::available() {
  std::lock_guard<std::mutex> Lock(Mu);
  return static_cast<bool>(probe());
}

std::string Engine::unavailableReason() {
  std::lock_guard<std::mutex> Lock(Mu);
  support::Status S = probe();
  return S ? std::string() : S.message();
}

support::Expected<void *> Engine::load(const std::string &SoPath,
                                       const std::string &Symbol) {
  void *H = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H)
    return e017("dlopen " + SoPath + ": " + ::dlerror());
  if (void *Sym = ::dlsym(H, Symbol.c_str()))
    return Sym;
  return e017("dlsym " + Symbol + " in " + SoPath + ": " + ::dlerror());
}

support::Expected<void *>
Engine::fetchLocked(std::uint64_t Key,
                    const std::function<std::string(const std::string &)>
                        &Render) {
  obs::Tracer &Tr = obs::Tracer::global();
  if (auto It = Loaded.find(Key); It != Loaded.end()) {
    ++Tally.CacheHits;
    Tr.add(obs::Counter::JitCacheHits, 1);
    return It->second;
  }

  const std::string Stem = Opts.CacheDir + "/" + hexKey(Key);
  const std::string Symbol = "lcdfg_k_" + hexKey(Key);
  const std::string CPath = Stem + ".c";
  const std::string SoPath = Stem + ".so";

  std::error_code EC;
  bool FromDisk = fs::exists(SoPath, EC);
  if (FromDisk) {
    // A prior process built this class; a corrupt or truncated object is
    // discarded and rebuilt below rather than surfacing as a hard error.
    if (auto K = load(SoPath, Symbol)) {
      ++Tally.CacheHits;
      Tr.add(obs::Counter::JitCacheHits, 1);
      Loaded.emplace(Key, *K);
      return *K;
    }
    fs::remove(SoPath, EC);
  }

  const std::string Real = Render(Symbol);
  if (support::Status S = writeFileAtomic(CPath, Real); !S) {
    ++Tally.Failures;
    return S;
  }
  const std::int64_t T0 = Tr.enabled() ? Tr.nowNs() : 0;
  support::Status S = compileTo(CPath, SoPath);
  if (Tr.enabled()) {
    obs::TraceSpan Span;
    Span.Kind = obs::SpanKind::Jit;
    Span.T0 = T0;
    Span.T1 = Tr.nowNs();
    Span.Label = Tr.intern("jit-compile:" + hexKey(Key));
    Tr.record(Span);
  }
  if (!S) {
    ++Tally.Failures;
    return S;
  }
  auto K = load(SoPath, Symbol);
  if (!K) {
    ++Tally.Failures;
    return K.takeError();
  }
  ++Tally.Compiled;
  Tr.add(obs::Counter::JitCompiled, 1);
  Loaded.emplace(Key, *K);
  return *K;
}

support::Expected<codegen::RowKernel>
Engine::rowKernel(const codegen::RowKernelDesc &Desc) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (support::Status S = probe(); !S) {
    ++Tally.Failures;
    return S;
  }

  // The cache key covers everything that shapes the object: the sealed
  // environmental prefix (ABI tag, compiler path + version line, the full
  // flag set) extended with the structural hash of every statement's
  // expression and stream shape — which together fully determine the
  // emitted source. Hashing structure instead of rendered text keeps
  // repeat lookups free of string building. The tag is the fused-walker
  // emission version: bump it whenever printRowKernel's output or the
  // RowKernel ABI changes.
  std::uint64_t Key = fnv1aU64(KeyBase, 0x726f777732ULL); // "roww2"
  Key = fnv1aU64(Key, Desc.Stmts.size());
  Key = fnv1aU64(Key, static_cast<std::uint64_t>(Desc.MaxSegment));
  auto FoldStream = [&Key](const codegen::RowKernelDesc::Stream &S) {
    Key = fnv1aU64(Key, S.Space);
    Key = fnv1aU64(Key, S.Modulo ? 1 : 0);
    Key = fnv1aU64(Key, static_cast<std::uint64_t>(S.ModSize));
    Key = fnv1aU64(Key, static_cast<std::uint64_t>(S.InnerStride));
    Key = fnv1aU64(Key, S.Flat);
    Key = fnv1aU64(Key, S.AliasesWrite ? 1 : 0);
  };
  for (const codegen::RowKernelDesc::Stmt &St : Desc.Stmts) {
    Key = fnv1aU64(Key, static_cast<std::uint64_t>(St.Lo));
    Key = fnv1aU64(Key, static_cast<std::uint64_t>(St.Hi));
    FoldStream(St.Write);
    Key = fnv1aU64(Key, St.Reads.size());
    for (const codegen::RowKernelDesc::Stream &R : St.Reads)
      FoldStream(R);
    Key = St.Body ? St.Body->hash(Key) : fnv1aU64(Key, 0);
  }

  auto R = fetchLocked(Key, [&Desc](const std::string &Symbol) {
    return codegen::printRowKernel(Desc, Symbol);
  });
  if (!R)
    return R.takeError();
  return reinterpret_cast<codegen::RowKernel>(*R);
}

Engine::Stats Engine::stats() const {
  // Mu guards Tally, but stats() is read from test threads only after the
  // requests of interest returned; a const_cast lock keeps it honest.
  std::lock_guard<std::mutex> Lock(const_cast<std::mutex &>(Mu));
  return Tally;
}
