//===- bench/fig12_overhead.cpp - Figure 12 reproduction ----------------------===//
///
/// Figure 12: runtime overhead of PP, TPP, and PPP as a percentage of
/// the uninstrumented run, under the deterministic cost model (the
/// stand-in for the paper's Alpha hardware). A fourth column measures
/// the trace-collection backend (record branch-target packets on the
/// clean code, reconstruct counters offline) head-to-head against the
/// counter-based profilers, and a fifth records with cost stamps
/// (timing-annotated tracing), whose overhead must stay within 2x the
/// untimed trace column's.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

namespace {

struct Row {
  std::string Name;
  bool IsFp = false;
  double Vals[5] = {0, 0, 0, 0, 0};
};

void printTable(const char *Title, const std::vector<Row> &Rows) {
  printf("%s\n\n", Title);
  printHeader("bench", {"pp", "tpp", "ppp", "trace", "trace+t"});

  double Sum[5] = {0, 0, 0, 0, 0}, IntSum[5] = {0, 0, 0, 0, 0},
         FpSum[5] = {0, 0, 0, 0, 0};
  int N = 0, IntN = 0, FpN = 0;
  for (const Row &R : Rows) {
    printRow(R.Name, {R.Vals[0], R.Vals[1], R.Vals[2], R.Vals[3],
                      R.Vals[4]},
             "%10.2f");
    for (int K = 0; K < 5; ++K) {
      Sum[K] += R.Vals[K];
      (R.IsFp ? FpSum : IntSum)[K] += R.Vals[K];
    }
    ++N;
    (R.IsFp ? FpN : IntN) += 1;
  }
  printf("\n");
  if (IntN)
    printRow("INT-avg", {IntSum[0] / IntN, IntSum[1] / IntN,
                         IntSum[2] / IntN, IntSum[3] / IntN,
                         IntSum[4] / IntN});
  if (FpN)
    printRow("FP-avg", {FpSum[0] / FpN, FpSum[1] / FpN, FpSum[2] / FpN,
                        FpSum[3] / FpN, FpSum[4] / FpN});
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N,
                       Sum[4] / N});
  if (Sum[3] > 0)
    printf("\ntimed/untimed trace overhead ratio: %.2f (cost stamps "
           "must stay within 2x)\n",
           Sum[4] / Sum[3]);
  printf("\n");
}

} // namespace

int ppp::bench::runFig12Overhead() {
  printf("Figure 12: profiling overhead, percent of base runtime\n\n");
  std::vector<Row> Standard;
  for (const SuiteResult &R : suiteResults())
    Standard.push_back({R.Spec.Name,
                        R.Spec.IsFp,
                        {R.Pp.OverheadPct, R.Tpp.OverheadPct,
                         R.Ppp.OverheadPct, R.Trace.OverheadPct,
                         R.TraceTimed.OverheadPct}});
  printTable("-- standard cost model --", Standard);

  std::vector<Row> Alpha =
      runSuiteParallel(spec2000Suite(), [](const BenchmarkSpec &Spec) {
        PreparedBenchmark B = prepare(Spec, CostModel::alpha21164());
        FunctionAnalysisManager FAM(B.Expanded, &B.EP);
        Row R{B.Name, B.IsFp, {}};
        int I = 0;
        for (const ProfilerOptions &Opts :
             {ProfilerOptions::pp(), ProfilerOptions::tpp(),
              ProfilerOptions::ppp(), ProfilerOptions::trace(),
              ProfilerOptions::traceTimed()})
          R.Vals[I++] = runProfiler(B, Opts, &FAM).OverheadPct;
        return R;
      });
  printTable("-- Alpha-21164-like cost model (counter updates relatively "
             "expensive,\n   as on the paper's hardware) --",
             Alpha);
  printf("Expected shape (paper): PP ~31%% average (up to ~100%% on "
         "branchy code);\nTPP ~12%%; PPP ~5%% with the biggest PPP wins "
         "on the INT side. Our cost model\nis deterministic, so the "
         "paper's negative-overhead cache artifacts do not appear.\n"
         "The Alpha-like model shows the cost-model sensitivity: the "
         "same instrumentation\nweighs more when counter updates are "
         "relatively expensive, moving PP toward the\npaper's 31%%. The trace "
         "backend pays a flat per-branch byte cost, so it should\nundercut "
         "even PPP's counters while reconstructing identical profiles.\n");
  return 0;
}
