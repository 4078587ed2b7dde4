//===- serve/PlanCache.cpp ------------------------------------------------===//

#include "serve/PlanCache.h"

#include "obs/Trace.h"
#include "parser/PragmaParser.h"
#include "parser/ScriptRunner.h"
#include "support/Hash.h"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

using namespace lcdfg;
using namespace lcdfg::serve;
using support::ErrorCode;

bool PlanCache::Key::operator<(const Key &O) const {
  return std::tie(ChainHash, ScriptHash, Size, Widen, Harden) <
         std::tie(O.ChainHash, O.ScriptHash, O.Size, O.Widen, O.Harden);
}

PlanCache::Key PlanCache::keyOf(const RequestSpec &Spec) {
  Key K;
  K.ChainHash = support::fnv1a(Spec.Chain);
  K.ScriptHash = support::fnv1a(Spec.Script);
  K.Size = Spec.Size;
  K.Widen = Spec.Widen;
  K.Harden = Spec.Harden;
  return K;
}

namespace {

support::Expected<CompiledPlanPtr> compileImpl(const RequestSpec &Spec) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();

  parser::ParseResult Parsed = parser::parseLoopChain(Spec.Chain);
  if (!Parsed)
    return Parsed.status().withContext("while compiling a serve request");
  driver::Scheduled S(std::move(*Parsed.Chain));
  if (!Spec.Script.empty()) {
    parser::ScriptResult R = parser::runScript(*S.G, Spec.Script);
    if (!R)
      return support::Status::error(ErrorCode::IllegalTransform,
                                    "script line " + std::to_string(R.Line) +
                                        ": " + R.Error)
          .withContext("while compiling a serve request");
  }

  driver::LowerOptions LOpts;
  LOpts.Size = Spec.Size;
  LOpts.Widen = Spec.Widen;
  LOpts.Harden = Spec.Harden;
  auto L = driver::Lowered::lower(std::move(S), {}, LOpts);
  if (!L)
    return L.takeError().withContext("while compiling a serve request");
  auto CP = std::make_shared<CompiledPlan>(std::move(*L));

  // A throwaway store prices the spaces; it is freed before verification.
  CP->SerialHighWater =
      exec::buildFootprintTracker(CP->Plan,
                                  storage::ConcreteStorage(CP->SPlan, CP->Env))
          .serialHighWater();
  CP->Cost = graph::computeCost(*CP->G);
  CP->TrafficBytes =
      8 * CP->Cost.TotalRead.evaluate(std::max<std::int64_t>(Spec.Size, 1));
  // The ladder snapshots both stores before running, so a request's true
  // footprint is twice each allocation.
  CP->AdmitBytes = 2 * (CP->StoreBytes + CP->FallbackBytes);

  // Strict verification once per compile; per-request runs skip the gate
  // (the verdict cannot change for an immutable plan). An unclean plan is
  // still returned — the server answers its requests with E011.
  verify::Diagnostics Diags = CP->verify();
  if (Diags.hasErrors()) {
    CP->VerifyClean = false;
    CP->VerifyDetail = Diags.toString();
  }

  // Pre-warm the lazily memoized dependence closures: concurrent requests
  // share this entry read-only, and the first closure computation is the
  // one mutation a cold plan would otherwise make under readers.
  (void)CP->Plan.dependenceClosure();
  (void)CP->FbPlan.dependenceClosure();

  CP->CompileSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();
  return CompiledPlanPtr(std::move(CP));
}

} // namespace

support::Expected<CompiledPlanPtr> PlanCache::compile(const RequestSpec &Spec) {
  // Exception barrier for the whole pipeline: deep passes (graph build,
  // cost polynomials, verification) raise StatusError for chains that
  // parse but are not compilable — e.g. a fuzzed access that names a
  // variable its domain never binds. A daemon must hand those back as a
  // per-request Status, never let them unwind a connection thread.
  try {
    return compileImpl(Spec);
  } catch (const support::StatusError &E) {
    support::Status S = E.status();
    return S.withContext("while compiling a serve request");
  } catch (const std::exception &E) {
    return support::Status::error(ErrorCode::InvalidChain, E.what())
        .withContext("while compiling a serve request");
  }
}

PlanCache::PlanCache(std::size_t Capacity)
    : Capacity(Capacity == 0 ? 1 : Capacity) {}

support::Expected<CompiledPlanPtr> PlanCache::get(const RequestSpec &Spec,
                                                  bool *Hit) {
  if (Hit)
    *Hit = false;
  if (Spec.Bypass) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Stats.Misses;
    obs::Tracer::global().add(obs::Counter::ServeCacheMisses, 1);
  } else {
    Key K = keyOf(Spec);
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Entries.find(K);
    if (It != Entries.end()) {
      ++Stats.Hits;
      obs::Tracer::global().add(obs::Counter::ServeCacheHits, 1);
      Order.splice(Order.begin(), Order, It->second.Order);
      if (Hit)
        *Hit = true;
      return It->second.Plan;
    }
    ++Stats.Misses;
    obs::Tracer::global().add(obs::Counter::ServeCacheMisses, 1);
  }

  // Compile outside the lock: a slow compile must not block hits.
  support::Expected<CompiledPlanPtr> Compiled = compile(Spec);
  if (!Compiled || Spec.Bypass)
    return Compiled;

  Key K = keyOf(Spec);
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find(K);
  if (It != Entries.end())
    return It->second.Plan; // A racing miss inserted first; keep its entry.
  while (Entries.size() >= Capacity) {
    Entries.erase(Order.back());
    Order.pop_back();
    ++Stats.Evictions;
    obs::Tracer::global().add(obs::Counter::ServeEvictions, 1);
  }
  Order.push_front(K);
  Entries.emplace(K, Entry{*Compiled, Order.begin()});
  return Compiled;
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Stats;
  S.Entries = static_cast<std::int64_t>(Entries.size());
  return S;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Entries.clear();
  Order.clear();
}
