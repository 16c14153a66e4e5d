//===- bench/fig11_instrumented.cpp - Figure 11 reproduction ------------------===//
///
/// Figure 11: the fraction of dynamic paths each profiler instruments,
/// and (the figure's stripes) the portion counted through a hash table.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runFig11Instrumented() {
  printf("Figure 11: fraction of dynamic paths instrumented, percent "
         "(hashed portion in parens)\n\n");
  printHeader("bench", {"pp", "pp-hash", "tpp", "tpp-hash", "ppp",
                        "ppp-hash"});

  double Sum[6] = {0};
  int N = 0;
  for (const SuiteResult &R : suiteResults()) {
    std::vector<double> Vals;
    for (const ProfilerOutcome *Out : {&R.Pp, &R.Tpp, &R.Ppp}) {
      Vals.push_back(100.0 * Out->Frac.Total);
      Vals.push_back(100.0 * Out->Frac.Hashed);
    }
    printRow(R.Spec.Name, Vals, "%10.1f");
    for (int I = 0; I < 6; ++I)
      Sum[I] += Vals[static_cast<size_t>(I)];
    ++N;
  }
  printf("\n");
  printRow("average",
           {Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N, Sum[4] / N,
            Sum[5] / N},
           "%10.1f");
  printf("\nExpected shape (paper): PP instruments 100%% of dynamic "
         "paths (hashing the complex\nroutines); TPP and PPP "
         "instrument about half, and PPP eliminates hashing.\n");
  return 0;
}
