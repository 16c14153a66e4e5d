//===- bench/fig13b_poisoning.cpp - Free vs checked poisoning -----------------===//
///
/// Isolates the design choice of Section 4.6: TPP as originally
/// published pays a poison test on every path count in a routine with
/// cold edges; free poisoning trades counter-table space to remove the
/// test. The paper could not reproduce TPP's efficient checks and used
/// free poisoning for its TPP too (Sec. 7.4); this binary measures the
/// difference the substitution makes, for both TPP and PPP.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig13bPoisoning() {
  printf("Free vs checked poisoning: overhead percent\n\n");
  printHeader("bench",
              {"tpp-free", "tpp-chk", "ppp-free", "ppp-chk"});

  ProfilerOptions PppChecked = ProfilerOptions::ppp();
  PppChecked.Name = "ppp-checked";
  PppChecked.Poison = PoisonStyle::Checked;

  struct Row {
    std::string Name;
    double Vals[4] = {0, 0, 0, 0};
  };
  std::vector<Row> Rows = runOverSuite([&](const SuiteResult &S) {
    const PreparedBenchmark &B = *S.Prepared;
    FunctionAnalysisManager FAM(B.Expanded, &B.EP);
    Row R{S.Spec.Name, {}};
    R.Vals[0] = S.Tpp.OverheadPct;
    R.Vals[1] =
        runProfiler(B, ProfilerOptions::tppChecked(), &FAM).OverheadPct;
    R.Vals[2] = S.Ppp.OverheadPct;
    R.Vals[3] = runProfiler(B, PppChecked, &FAM).OverheadPct;
    return R;
  });

  double Sum[4] = {0, 0, 0, 0};
  int N = 0;
  for (const Row &R : Rows) {
    printRow(R.Name, {R.Vals[0], R.Vals[1], R.Vals[2], R.Vals[3]});
    for (int I = 0; I < 4; ++I)
      Sum[I] += R.Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N});
  printf("\nExpected shape: checked poisoning costs extra on every "
         "benchmark where cold\nedges exist (one compare-and-branch per "
         "count); the gap is the saving that\nmotivates Sec. 4.6. TPP "
         "rarely removes cold edges (hash-avoidance gating), so\nits "
         "gap is small; PPP poisons everywhere, so its gap is larger.\n");
  return 0;
}
