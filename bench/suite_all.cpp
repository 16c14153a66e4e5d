//===- bench/suite_all.cpp - Unified experiment suite driver ------------------===//
///
/// One process that runs every deterministic figure/table experiment
/// over a single shared set of prepared benchmarks. A first phase warms
/// the preparation cache once per (benchmark x cost-model) cell on a
/// shared worker pool, and then each experiment's run function executes
/// against the in-memory cache, so the suite's wall clock is bound by
/// step 5 (instrument + run + evaluate) only. The first experiment that
/// reads the shared suite table (bench/Experiments.h) builds it, so
/// each standard preset profiles each benchmark once per process.
///
/// Output contract: stdout is the exact concatenation of each selected
/// experiment's report; all framing (progress, timings, cache
/// statistics) goes to stderr. The full suite's stdout is pinned by
/// tests/golden/suite_all.txt (the experiments_golden test).
///
/// Usage: suite_all [--list] [experiment...]   (default: all)
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"
#include "Harness.h"
#include "PrepCache.h"

#include "obs/Trace.h"
#include "support/Format.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Phase 1: populate the preparation cache for every (benchmark x
/// cost-model) cell the selected experiments will ask for, on the
/// shared runParallel() pool. Each cell is independent; workers claim
/// cells from one shared queue so a slow benchmark never idles the
/// other threads, and the pool's telemetry (task spans, queue-wait and
/// utilization metrics) covers the warm phase like any other.
void warmPreparations(bool NeedStandard, bool NeedAlpha) {
  if (!prepCacheEnabled()) {
    fprintf(stderr, "[suite_all] PPP_CACHE=off: the shared suite table "
                    "prepares each benchmark once, other experiments "
                    "prepare independently\n");
    return;
  }
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  struct Cell {
    const BenchmarkSpec *Spec;
    CostModel Costs;
    std::string Label; ///< Trace span name ("warm:<bench>[.alpha]").
  };
  std::vector<Cell> Cells;
  for (const BenchmarkSpec &Spec : Suite) {
    if (NeedStandard)
      Cells.push_back({&Spec, CostModel(), "warm:" + Spec.Name});
    if (NeedAlpha)
      Cells.push_back(
          {&Spec, CostModel::alpha21164(), "warm:" + Spec.Name + ".alpha"});
  }
  if (Cells.empty())
    return;

  auto T0 = std::chrono::steady_clock::now();
  runParallel(
      Cells, parallelJobs(Cells.size()),
      [](const Cell &C) -> const std::string & { return C.Label; },
      [](const Cell &C) {
        return prepareShared(*C.Spec, C.Costs) != nullptr;
      });

  PrepCacheCounters C = prepCacheCounters();
  fprintf(stderr,
          "[suite_all] prepared %zu cells in %.2fs (%llu computed, %llu "
          "from disk, %llu in memory%s)\n",
          Cells.size(), secondsSince(T0), (unsigned long long)C.Misses,
          (unsigned long long)C.DiskHits, (unsigned long long)C.MemHits,
          C.Corrupt ? formatString(", %llu corrupt rebuilt",
                                   (unsigned long long)C.Corrupt)
                          .c_str()
                    : "");
}

int usage(FILE *Out) {
  fprintf(Out, "usage: suite_all [--list] [experiment...]\n");
  fprintf(Out, "experiments (default: all, in this order):\n");
  for (const ExperimentInfo &E : experiments())
    fprintf(Out, "  %s\n", E.Name);
  return Out == stderr ? 2 : 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<const ExperimentInfo *> Selected;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--list") == 0)
      return usage(stdout);
    if (std::strcmp(argv[I], "--help") == 0)
      return usage(stdout);
    const ExperimentInfo *Found = findExperiment(argv[I]);
    if (!Found) {
      fprintf(stderr, "suite_all: unknown experiment '%s'\n", argv[I]);
      return usage(stderr);
    }
    Selected.push_back(Found);
  }
  if (Selected.empty())
    for (const ExperimentInfo &E : experiments())
      Selected.push_back(&E);

  bool NeedStandard = false, NeedAlpha = false;
  for (const ExperimentInfo *E : Selected) {
    NeedStandard |= E->UsesPrepare;
    NeedAlpha |= E->UsesAlphaCosts;
  }

  auto T0 = std::chrono::steady_clock::now();
  warmPreparations(NeedStandard, NeedAlpha);

  int Exit = 0;
  for (size_t I = 0; I < Selected.size(); ++I) {
    const ExperimentInfo *E = Selected[I];
    fprintf(stderr, "[suite_all] (%zu/%zu) %s\n", I + 1, Selected.size(),
            E->Name);
    auto TE = std::chrono::steady_clock::now();
    int Rc;
    {
      obs::ScopedSpan Span("experiment:", std::string(E->Name), "suite");
      Rc = E->Run();
    }
    fflush(stdout);
    fprintf(stderr, "[suite_all] (%zu/%zu) %s done in %.2fs%s\n", I + 1,
            Selected.size(), E->Name, secondsSince(TE),
            Rc ? " (FAILED)" : "");
    if (Rc && !Exit)
      Exit = Rc;
  }
  fprintf(stderr, "[suite_all] %zu experiment(s) in %.2fs total\n",
          Selected.size(), secondsSince(T0));
  return Exit;
}
