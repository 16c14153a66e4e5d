//===- bench/Experiments.cpp - Registry and shared suite table ------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"

using namespace ppp;
using namespace ppp::bench;

namespace {

const ExperimentInfo Table[] = {
    {"table1_inlining", runTable1Inlining},
    {"table2_hotpaths", runTable2Hotpaths},
    {"fig9_accuracy", runFig9Accuracy},
    {"fig10_coverage", runFig10Coverage},
    {"fig11_instrumented", runFig11Instrumented},
    {"fig12_overhead", runFig12Overhead},
    {"fig13_ablation", runFig13Ablation},
    {"fig13b_poisoning", runFig13bPoisoning},
    {"fig13c_oneatatime", runFig13cOneAtATime},
    {"trace_payoff", runTracePayoff},
    {"edge_instrumentation", runEdgeInstrumentation},
    {"kernels_overhead", runKernelsOverhead},
    {"net_vs_ppp", runNetVsPpp},
    {"metric_comparison", runMetricComparison},
    {"kiter_blowup", runKiterBlowup},
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
        R.Prepared = std::make_shared<const PreparedBenchmark>(prepare(Spec));
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
