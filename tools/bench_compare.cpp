//===- tools/bench_compare.cpp - Bench regression gate --------------------===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
// Diffs a fresh benchmark run against a committed BENCH_*.json baseline
// (the flat variant -> key -> seconds format bench::JsonReport writes) and
// exits nonzero when any timing regressed beyond the tolerance, so ci.sh
// can gate on the repo's own perf history.
//
//   bench_compare [--tolerance=F] [--floor=S] [--optional=PREFIX]
//                 <baseline.json> <fresh.json>
//     --tolerance=F     allowed relative slowdown before a row fails
//                       (default 0.15 = 15%)
//     --floor=S         baseline rows faster than S seconds are reported
//                       but never gated — sub-floor timings are scheduler
//                       noise (default 0.0002)
//     --optional=PREFIX variants whose name starts with PREFIX are gated
//                       only when the fresh report has them at all
//                       (default "jit-": JIT rows exist only on machines
//                       with a reachable host compiler, and their absence
//                       must not fail the gate)
//
// Rules: every (variant, key) row of the baseline must exist in the fresh
// report (a vanished row fails — a renamed benchmark must update its
// baseline); the "_meta" block is informational and ignored; rows new in
// the fresh report are listed but do not gate; keys starting with "idle"
// carry idle-share ratios rather than seconds (the sched-* scheduler
// rows) and are printed for trend-watching but never gated or counted;
// variants matching the optional prefix that vanished wholesale are
// reported as skips, not misses.
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Report = std::map<std::string, std::map<std::string, double>>;

/// Reads a JsonReport: one object of objects whose leaf values are numbers
/// (string leaves are dropped). The "_meta" block is skipped whatever its
/// shape; any other shape is not a bench report.
bool readReport(const char *Path, Report &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n", Path);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  auto Parsed = lcdfg::serve::parseJson(SS.str());
  bool Ok = Parsed && Parsed->isObject();
  for (std::size_t V = 0; Ok && V < Parsed->Members.size(); ++V) {
    const auto &[Variant, Keys] = Parsed->Members[V];
    if (Variant == "_meta")
      continue;
    Ok = Keys.isObject();
    std::map<std::string, double> &Row = Out[Variant];
    for (const auto &[Key, Leaf] : Keys.Members) {
      if (Leaf.isNumber())
        Row[Key] = Leaf.Num;
      else if (!Leaf.isString())
        Ok = false;
    }
  }
  if (!Ok) {
    std::fprintf(stderr, "bench_compare: %s is not a bench report\n", Path);
    return false;
  }
  return true;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance=F] [--floor=S] [--optional=PREFIX] "
               "<baseline.json> <fresh.json>\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  double Tolerance = 0.15;
  double Floor = 0.0002;
  std::string OptionalPrefix = "jit-";
  std::vector<const char *> Paths;
  for (int I = 1; I < argc; ++I) {
    // Numeric values must be all number: "abc" would otherwise read as 0
    // and gate every row at zero tolerance.
    if (std::strncmp(argv[I], "--tolerance=", 12) == 0) {
      if (!lcdfg::parseDouble(argv[I] + 12, Tolerance) || Tolerance < 0)
        return usage(argv[0]);
    } else if (std::strncmp(argv[I], "--floor=", 8) == 0) {
      if (!lcdfg::parseDouble(argv[I] + 8, Floor))
        return usage(argv[0]);
    } else if (std::strncmp(argv[I], "--optional=", 11) == 0) {
      OptionalPrefix = argv[I] + 11;
    } else if (argv[I][0] == '-') {
      return usage(argv[0]);
    } else {
      Paths.push_back(argv[I]);
    }
  }
  if (Paths.size() != 2)
    return usage(argv[0]);

  Report Base, Fresh;
  if (!readReport(Paths[0], Base) || !readReport(Paths[1], Fresh))
    return 1;

  int Failures = 0, Rows = 0, Skipped = 0;
  std::printf("bench_compare: %s vs %s (tolerance %.0f%%)\n", Paths[0],
              Paths[1], Tolerance * 100.0);
  for (const auto &[Variant, Keys] : Base) {
    const auto FreshVariant = Fresh.find(Variant);
    // First-appearance/optional rows: a variant carrying the optional
    // prefix sets a baseline when present but is a skip — not a miss —
    // when the fresh run could not produce it at all.
    if (!OptionalPrefix.empty() &&
        Variant.compare(0, OptionalPrefix.size(), OptionalPrefix) == 0 &&
        FreshVariant == Fresh.end()) {
      std::printf("  skip  %-40s optional variant absent from fresh run "
                  "[not gated]\n",
                  Variant.c_str());
      ++Skipped;
      continue;
    }
    for (const auto &[Key, BaseS] : Keys) {
      const std::string Row = Variant + "." + Key;
      if (Key.rfind("idle", 0) == 0) {
        // Idle-share ratio, not a timing: informational only.
        const bool Have =
            FreshVariant != Fresh.end() &&
            FreshVariant->second.find(Key) != FreshVariant->second.end();
        std::printf("  info  %-40s base %.3f fresh %s [idle share, not "
                    "gated]\n",
                    Row.c_str(), BaseS,
                    Have ? std::to_string(FreshVariant->second.at(Key))
                               .c_str()
                         : "(missing)");
        continue;
      }
      ++Rows;
      if (FreshVariant == Fresh.end() ||
          FreshVariant->second.find(Key) == FreshVariant->second.end()) {
        std::printf("  MISS  %-40s baseline %.6gs has no fresh row\n",
                    Row.c_str(), BaseS);
        ++Failures;
        continue;
      }
      const double FreshS = FreshVariant->second.at(Key);
      const double Ratio = BaseS > 0 ? FreshS / BaseS : 1.0;
      const bool UnderFloor = BaseS < Floor;
      const bool Regressed = !UnderFloor && FreshS > BaseS * (1.0 + Tolerance);
      if (Regressed)
        ++Failures;
      if (UnderFloor)
        ++Skipped;
      std::printf("  %s %-40s base %.6gs fresh %.6gs (%.2fx)%s\n",
                  Regressed ? "FAIL " : "ok   ", Row.c_str(), BaseS, FreshS,
                  Ratio, UnderFloor ? " [under floor, not gated]" : "");
    }
  }
  for (const auto &[Variant, Keys] : Fresh) {
    for (const auto &[Key, S] : Keys)
      if (Base.find(Variant) == Base.end() ||
          Base.at(Variant).find(Key) == Base.at(Variant).end())
        std::printf("  new   %s.%s: %.6gs (not in baseline, not gated)\n",
                    Variant.c_str(), Key.c_str(), S);
  }

  std::printf("bench_compare: %d row(s), %d regression(s), %d under floor\n",
              Rows, Failures, Skipped);
  return Failures ? 1 : 0;
}
