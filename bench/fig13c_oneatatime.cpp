//===- bench/fig13c_oneatatime.cpp - One-at-a-time methodology ----------------===//
///
/// Section 8.3's closing observation: under leave-one-out, LC and SPN
/// look unimportant, but adding each technique *alone* on top of TPP
/// shows real benefit (the paper: LC and SPN lower TPP's overhead by
/// 27% and 16% respectively on the Figure 13 benchmarks). This binary
/// reproduces that one-at-a-time view: TPP plus exactly one PPP
/// technique.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"
#include "pass/Pipeline.h"

#include <cstdio>
#include <string>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig13cOneAtATime() {
  printf("One-at-a-time (Sec. 8.3): TPP plus exactly one PPP "
         "technique, overhead percent\n\n");
  printHeader("bench", {"tpp", "+SAC", "+FP", "+Push", "+SPN", "+LC",
                        "ppp"});

  // One-at-a-time as profiler specs (pass/Pipeline.h grammar):
  // "tpp;+sac" is bare TPP plus only the self-adjusting cold criterion,
  // and so on. Enabling sac or fp also lifts TPP's hash-avoidance gate
  // (ColdOnlyToAvoidHash), so the added criterion has teeth.
  const char *Variants[5] = {"tpp;+sac", "tpp;+fp", "tpp;+push",
                             "tpp;+spn", "tpp;+lc"};

  struct Row {
    std::string Name;
    std::vector<double> Vals;
  };
  std::vector<Row> Rows = runOverSuite([&](const SuiteResult &S) {
    const PreparedBenchmark &B = *S.Prepared;
    FunctionAnalysisManager FAM(B.Expanded, &B.EP);
    Row R{S.Spec.Name, {S.Tpp.OverheadPct}};
    for (const char *V : Variants)
      R.Vals.push_back(
          runProfiler(B, mustParseProfilerSpec(V), &FAM).OverheadPct);
    R.Vals.push_back(S.Ppp.OverheadPct);
    return R;
  });

  double Sum[7] = {0};
  int N = 0;
  for (const Row &R : Rows) {
    printRow(R.Name, R.Vals);
    for (size_t I = 0; I < R.Vals.size(); ++I)
      Sum[I] += R.Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N,
                       Sum[4] / N, Sum[5] / N, Sum[6] / N});
  printf("\nExpected shape (paper): techniques that looked useless "
         "under leave-one-out\n(LC, SPN) lower TPP's overhead here, "
         "because another technique covers for them\nin full PPP but "
         "nothing does on top of bare TPP.\n");
  return 0;
}
