//===- bench/fig10_coverage.cpp - Figure 10 reproduction ----------------------===//
///
/// Figure 10: coverage -- the fraction of the actual path profile each
/// method definitely measures (Sec. 6.2): definite-flow attribution for
/// edge profiling; measured + computed definite flow minus the
/// overcount penalty for TPP and PPP.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig10Coverage() {
  printf("Figure 10: coverage (fraction of actual path profile "
         "measured), percent\n\n");
  printHeader("bench", {"edge", "tpp", "ppp"});

  double Sum[3] = {0, 0, 0};
  int N = 0;
  for (const SuiteResult &R : suiteResults()) {
    double Vals[3] = {100.0 * R.Edge.Coverage, 100.0 * R.Tpp.Cov.Coverage,
                      100.0 * R.Ppp.Cov.Coverage};
    printRow(R.Spec.Name, {Vals[0], Vals[1], Vals[2]}, "%10.1f");
    for (int I = 0; I < 3; ++I)
      Sum[I] += Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N}, "%10.1f");
  printf("\nExpected shape (paper): edge profiles attribute only about "
         "half of program flow\n(Sec. 8.1: ~48%%); TPP covers somewhat "
         "more than PPP on INT benchmarks; both far\nabove edge "
         "profiling.\n");
  return 0;
}
