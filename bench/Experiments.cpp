//===- bench/Experiments.cpp - Registry and shared suite table ------------===//

#include "Experiments.h"

#include "PrepCache.h"

#include "pass/AnalysisManager.h"

using namespace ppp;
using namespace ppp::bench;

namespace {

const ExperimentInfo Table[] = {
    {"table1_inlining", runTable1Inlining, true, false},
    {"table2_hotpaths", runTable2Hotpaths, true, false},
    {"fig9_accuracy", runFig9Accuracy, true, false},
    {"fig10_coverage", runFig10Coverage, true, false},
    {"fig11_instrumented", runFig11Instrumented, true, false},
    {"fig12_overhead", runFig12Overhead, true, true},
    {"fig13_ablation", runFig13Ablation, true, false},
    {"fig13b_poisoning", runFig13bPoisoning, true, false},
    {"fig13c_oneatatime", runFig13cOneAtATime, true, false},
    {"trace_payoff", runTracePayoff, true, false},
    {"edge_instrumentation", runEdgeInstrumentation, true, false},
    {"kernels_overhead", runKernelsOverhead, false, false},
    {"net_vs_ppp", runNetVsPpp, true, false},
    {"metric_comparison", runMetricComparison, true, false},
    {"kiter_blowup", runKiterBlowup, true, false},
};

} // namespace

std::span<const ExperimentInfo> ppp::bench::experiments() { return Table; }

const ExperimentInfo *ppp::bench::findExperiment(const std::string &Name) {
  for (const ExperimentInfo &E : Table)
    if (Name == E.Name)
      return &E;
  return nullptr;
}

const std::vector<SuiteResult> &ppp::bench::suiteResults() {
  static const std::vector<SuiteResult> Rows =
      runSuiteParallel(spec2000Suite(), [](const BenchmarkSpec &Spec) {
        SuiteResult R;
        R.Spec = Spec;
        R.Prepared = prepareShared(Spec, CostModel());
        if (!R.Prepared)
          R.Prepared =
              std::make_shared<const PreparedBenchmark>(prepareUncached(Spec));
        const PreparedBenchmark &B = *R.Prepared;
        R.Edge = evaluateEdgeProfiling(B);
        FunctionAnalysisManager FAM(B.Expanded, &B.EP);
        R.Pp = runProfiler(B, ProfilerOptions::pp(), &FAM);
        R.Tpp = runProfiler(B, ProfilerOptions::tpp(), &FAM);
        R.Ppp = runProfiler(B, ProfilerOptions::ppp(), &FAM);
        R.Trace = runProfiler(B, ProfilerOptions::trace(), &FAM);
        R.TraceTimed = runProfiler(B, ProfilerOptions::traceTimed(), &FAM);
        return R;
      });
  return Rows;
}
