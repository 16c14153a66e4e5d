//===- bench/fig13_ablation.cpp - Figure 13 reproduction ----------------------===//
///
/// Figure 13: leave-one-out ablation of PPP's techniques, on the
/// benchmarks where PPP improves on TPP, normalized to TPP's overhead.
///
///   SAC  = self-adjusting + global cold edge criterion (Secs. 4.2/4.3)
///   FP   = free cold path poisoning: turning it off reverts to TPP's
///          policy of removing cold edges only to avoid hashing
///          (Sec. 4.6; the paper's own TPP implementation also uses
///          free poisoning, so the check itself is not modeled)
///   Push = pushing instrumentation through cold edges (Sec. 4.4)
///   SPN  = smart path numbering + profile-driven event counting
///          (Sec. 4.5)
///   LC   = instrument only low-coverage routines (Sec. 4.1)
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"
#include "pass/Pipeline.h"

#include <cstdio>
#include <string>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig13Ablation() {
  printf("Figure 13: PPP leave-one-out, overhead percent (and overhead "
         "normalized to TPP)\n");
  printf("Benchmarks shown: those where PPP improves on TPP by more "
         "than 5%% of base runtime.\n\n");
  printHeader("bench", {"tpp", "ppp", "-SAC", "-FP", "-Push", "-SPN",
                        "-LC"});

  // Leave-one-out as profiler specs (pass/Pipeline.h grammar):
  // "ppp;-sac" is full PPP with the self-adjusting cold criterion
  // disabled, and so on.
  const char *Variants[5] = {"ppp;-sac", "ppp;-fp", "ppp;-push",
                             "ppp;-spn", "ppp;-lc"};

  struct Row {
    std::string Name;
    bool Shown = false;
    std::vector<double> Vals;
  };
  std::vector<Row> Rows = runOverSuite([&](const SuiteResult &S) {
    Row R{S.Spec.Name, false, {}};
    if (S.Tpp.OverheadPct - S.Ppp.OverheadPct <= 5.0)
      return R; // The paper plots only significant-improvement cases.
    R.Shown = true;
    R.Vals = {S.Tpp.OverheadPct, S.Ppp.OverheadPct};
    const PreparedBenchmark &B = *S.Prepared;
    FunctionAnalysisManager FAM(B.Expanded, &B.EP);
    for (const char *V : Variants)
      R.Vals.push_back(
          runProfiler(B, mustParseProfilerSpec(V), &FAM).OverheadPct);
    return R;
  });

  int Shown = 0;
  for (const Row &R : Rows) {
    if (!R.Shown)
      continue;
    ++Shown;
    printRow(R.Name, R.Vals, "%10.2f");
    // Normalized row (variant overhead / TPP overhead), as the paper
    // plots it.
    std::vector<double> Norm;
    for (double V : R.Vals)
      Norm.push_back(R.Vals[0] == 0 ? 0 : V / R.Vals[0]);
    printRow("  (norm)", Norm, "%10.2f");
  }
  if (Shown == 0)
    printf("(no benchmark where PPP improves on TPP by more than 5%%; "
           "lower the threshold to inspect)\n");
  printf("\nExpected shape (paper): every technique matters somewhere; "
         "SAC and FP are the\nbiggest contributors, Push next; SPN and "
         "LC help little under leave-one-out.\n");
  return 0;
}
