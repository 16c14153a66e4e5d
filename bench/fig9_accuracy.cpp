//===- bench/fig9_accuracy.cpp - Figure 9 reproduction ------------------------===//
///
/// Figure 9: accuracy -- the fraction of hot path flow (hot = 0.125% of
/// total branch flow) each profiling method predicts, for edge
/// profiling, TPP, and PPP.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig9Accuracy() {
  printf("Figure 9: accuracy (fraction of hot path flow predicted), "
         "percent\n\n");
  printHeader("bench", {"edge", "tpp", "ppp"});

  double Sum[3] = {0, 0, 0};
  int N = 0;
  for (const SuiteResult &R : suiteResults()) {
    double Vals[3] = {100.0 * R.Edge.Acc.Accuracy,
                      100.0 * R.Tpp.Acc.Accuracy,
                      100.0 * R.Ppp.Acc.Accuracy};
    printRow(R.Spec.Name, {Vals[0], Vals[1], Vals[2]}, "%10.1f");
    for (int I = 0; I < 3; ++I)
      Sum[I] += Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N}, "%10.1f");
  printf("\nExpected shape (paper): edge profiles predict hot paths "
         "poorly (avg 73%%, as low as 26%%);\nTPP and PPP both >= 90%% "
         "everywhere with PPP within ~1%% of TPP (avg ~96%%).\n");
  return 0;
}
