//===- bench/table2_hotpaths.cpp - Table 2 reproduction -----------------------===//
///
/// Table 2: distinct dynamic paths; number of hot paths and the percent
/// of total program flow they carry, at the 0.125% and 1% hot
/// thresholds (branch-flow metric).
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "Harness.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runTable2Hotpaths() {
  printf("Table 2: hot paths in the synthetic SPEC2000 suite "
         "(expanded code)\n\n");
  printHeader("bench", {"distinct", "hot.125", "%flow", "hot1", "%flow"});

  struct Row {
    std::string Name;
    bool IsFp = false;
    double Distinct = 0;
    double Count[2] = {0, 0};
    double Pct[2] = {0, 0};
  };
  std::vector<Row> Rows =
      runSuiteParallel(spec2000Suite(), [](const BenchmarkSpec &Spec) {
        PreparedBenchmark B = prepare(Spec);
        uint64_t Total = B.Oracle.totalFlow(FlowMetric::Branch);
        Row R{B.Name, B.IsFp, static_cast<double>(B.Oracle.distinctPaths()),
              {}, {}};
        const double Thresholds[2] = {0.00125, 0.01};
        for (int T = 0; T < 2; ++T) {
          std::vector<PathRef> Hot =
              selectHotPaths(B.Oracle, FlowMetric::Branch, Thresholds[T]);
          uint64_t Flow = 0;
          for (const PathRef &P : Hot)
            Flow += B.Oracle.Funcs[static_cast<size_t>(P.Func)]
                        .Paths[P.Index]
                        .flow(FlowMetric::Branch);
          R.Count[T] = static_cast<double>(Hot.size());
          R.Pct[T] = Total == 0 ? 0
                                : 100.0 * static_cast<double>(Flow) /
                                      static_cast<double>(Total);
        }
        return R;
      });

  double IntFlow[2] = {0, 0}, FpFlow[2] = {0, 0};
  int IntN = 0, FpN = 0;
  for (const Row &R : Rows) {
    printRow(R.Name,
             {R.Distinct, R.Count[0], R.Pct[0], R.Count[1], R.Pct[1]},
             "%10.1f");
    (R.IsFp ? FpFlow : IntFlow)[0] += R.Pct[0];
    (R.IsFp ? FpFlow : IntFlow)[1] += R.Pct[1];
    (R.IsFp ? FpN : IntN) += 1;
  }
  printf("\n");
  if (IntN)
    printf("INT avg %%flow: %.1f (0.125%%), %.1f (1%%)\n",
           IntFlow[0] / IntN, IntFlow[1] / IntN);
  if (FpN)
    printf("FP  avg %%flow: %.1f (0.125%%), %.1f (1%%)\n",
           FpFlow[0] / FpN, FpFlow[1] / FpN);
  if (IntN + FpN)
    printf("ALL avg %%flow: %.1f (0.125%%), %.1f (1%%)\n",
           (IntFlow[0] + FpFlow[0]) / (IntN + FpN),
           (IntFlow[1] + FpFlow[1]) / (IntN + FpN));
  printf("\nExpected shape (paper): the 0.125%% threshold captures "
         "much more flow than 1%%\n(92.7%% vs 74.1%% overall); FP "
         "benchmarks concentrate flow in fewer paths.\n");
  return 0;
}
