//===- bench/suite_all.cpp - Unified experiment suite driver ------------------===//
///
/// One process that runs every deterministic figure/table experiment
/// over a single shared set of prepared benchmarks: each experiment
/// prepares inside its own runSuiteParallel() pool, and prepare()'s
/// per-process memo computes each (benchmark x cost-model) cell once.
/// The first experiment that reads the shared suite table
/// (bench/Experiments.h) builds it, so each standard preset profiles
/// each benchmark once per process.
///
/// Output contract: stdout is the exact concatenation of each selected
/// experiment's report; all framing (progress, timings) goes to
/// stderr. The full suite's stdout is pinned by
/// tests/golden/suite_all.txt (the experiments_golden test).
///
/// Usage: suite_all [--list] [experiment...]   (default: all)
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"
#include "Harness.h"

#include "obs/Trace.h"

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

  auto T0 = std::chrono::steady_clock::now();
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
