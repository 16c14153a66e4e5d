//===- tests/interp_stats_dump.cpp - Interpreter telemetry per profiler ---===//
///
/// Prints, for every suite benchmark and profiler spec, the nonzero
/// `interp.op.*` and `interp.table.*` counts one profiling run adds to
/// the metrics registry: one line per (benchmark, spec), keys sorted.
/// The `clean` spec is the clean observed run (profileClean); every
/// other spec is bench::runProfiler's collection run. Runs are
/// sequential, so each line is exactly one run's delta.
///
/// The interp_stats ctest pipes this into `cmp` against
/// tests/golden/interp_stats.txt.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Obs.h"
#include "profile/Collectors.h"

#include <cstdio>
#include <map>
#include <string>

using namespace ppp;
using namespace ppp::bench;

namespace {

std::map<std::string, uint64_t> interpCounters() {
  std::map<std::string, uint64_t> Out;
  for (const obs::SnapshotEntry &E : obs::snapshot().Entries)
    if (E.Kind == obs::MetricKind::Counter &&
        (E.Name.rfind("interp.op.", 0) == 0 ||
         E.Name.rfind("interp.table.", 0) == 0))
      Out[E.Name] = E.Count;
  return Out;
}

void printDelta(const std::string &Bench, const std::string &Spec,
                const std::map<std::string, uint64_t> &Before) {
  printf("%s %s", Bench.c_str(), Spec.c_str());
  for (const auto &[Name, Value] : interpCounters()) {
    auto It = Before.find(Name);
    uint64_t Delta = Value - (It == Before.end() ? 0 : It->second);
    if (Delta)
      printf(" %s=%llu", Name.c_str(), (unsigned long long)Delta);
  }
  printf("\n");
}

} // namespace

int main() {
  obs::setInterpStatsForTesting(1);
  const ProfilerOptions Specs[] = {
      ProfilerOptions::pp(),
      ProfilerOptions::tpp(),
      ProfilerOptions::ppp(),
      ProfilerOptions::tppChecked(),
      atKIterations(ProfilerOptions::ppp(), 3),
      ProfilerOptions::trace(),
      ProfilerOptions::traceTimed(),
  };
  for (const BenchmarkSpec &Spec : spec2000Suite()) {
    PreparedBenchmark B = prepare(Spec);
    InterpOptions IO;
    IO.Costs = B.Costs;
    std::map<std::string, uint64_t> Before = interpCounters();
    profileClean(B.Expanded, IO);
    printDelta(B.Name, "clean", Before);
    for (const ProfilerOptions &Opts : Specs) {
      Before = interpCounters();
      runProfiler(B, Opts);
      printDelta(B.Name, Opts.Name, Before);
    }
  }
  return 0;
}
