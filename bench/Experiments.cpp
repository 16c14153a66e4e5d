//===- bench/Experiments.cpp - Experiment registry ------------------------===//

#include "Experiments.h"

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
