//===- bench/metric_comparison.cpp - Unit flow vs branch flow ------------------===//
///
/// Section 5.1 introduces the branch-flow metric because unit flow
/// weights a long path the same as a trivial one, inflating how good an
/// estimator looks on short paths. This binary evaluates edge profiling
/// and PPP under *both* metrics: the paper's claim predicts that edge
/// profiling looks better under unit flow than under branch flow (its
/// failures concentrate on long, branchy paths), while PPP, which
/// measures long paths directly, is stable across metrics.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

int ppp::bench::runMetricComparison() {
  printf("Accuracy under unit flow vs branch flow, percent\n\n");
  printHeader("bench", {"edge-unit", "edge-br", "ppp-unit", "ppp-br"});

  struct Row {
    std::string Name;
    double Vals[4] = {0, 0, 0, 0};
  };
  std::vector<Row> Rows = runOverSuite([](const SuiteResult &R) {
    const PreparedBenchmark &B = *R.Prepared;

    // Edge profiling: potential-flow estimates, each cut under the
    // metric it will be judged by. Its branch-flow accuracy is the
    // shared table's.
    auto EdgeEstimate = [&](FlowMetric Metric) {
      uint64_t Cut = static_cast<uint64_t>(
          DefaultHotFraction *
          static_cast<double>(B.Oracle.totalFlow(Metric)) / 2.0);
      return estimateFromEdgeProfile(B.Expanded, B.EP, FlowKind::Potential,
                                     Cut, Metric);
    };
    double EdgeUnit = computeAccuracy(B.Oracle, EdgeEstimate(FlowMetric::Unit),
                                      FlowMetric::Unit)
                          .Accuracy;

    // PPP, same estimated profile under both metrics: runProfiler judges
    // a run with no instrumentation on the branch-flow edge estimate.
    PathProfile EdgeEst;
    if (!R.Ppp.AnyInstrumented)
      EdgeEst = EdgeEstimate(FlowMetric::Branch);
    const PathProfile &Est =
        R.Ppp.AnyInstrumented ? R.Ppp.Run.Estimated : EdgeEst;
    double PppUnit =
        computeAccuracy(B.Oracle, Est, FlowMetric::Unit).Accuracy;

    return Row{R.Spec.Name,
               {100 * EdgeUnit, 100 * R.Edge.Acc.Accuracy, 100 * PppUnit,
                100 * R.Ppp.Acc.Accuracy}};
  });

  double Sum[4] = {0, 0, 0, 0};
  int N = 0;
  for (const Row &R : Rows) {
    printRow(R.Name, {R.Vals[0], R.Vals[1], R.Vals[2], R.Vals[3]},
             "%10.1f");
    for (int I = 0; I < 4; ++I)
      Sum[I] += R.Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N},
           "%10.1f");
  printf("\nExpected shape (Sec. 5.1): unit flow flatters the edge "
         "profile (its mistakes\nsit on the long paths branch flow "
         "emphasizes); PPP is metric-stable. The gap\nbetween the two "
         "edge columns is the bias the branch-flow metric removes.\n");
  return 0;
}
