//===- bench/Experiments.h - Experiment registry ---------------*- C++ -*-===//
///
/// \file
/// Every deterministic figure/table experiment exposes its whole
/// program as one `run*()` function, registered once in the
/// experiments() table (bench/Experiments.cpp, library
/// ppp_experiments). Each standalone binary is a generated one-line
/// main that runs its row; the unified suite_all driver runs any subset
/// in one process, so the experiments share a single preparation cache
/// instead of each rebuilding every benchmark. Every experiment
/// translation unit compiles once, for both.
///
/// Contract: a run function writes its complete report to stdout --
/// byte-identical whether invoked standalone or from suite_all -- and
/// returns a process exit code. Experiments whose output is wall-clock
/// dependent (interp_throughput, counters_microbench) are deliberately
/// not part of this registry.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_BENCH_EXPERIMENTS_H
#define PPP_BENCH_EXPERIMENTS_H

#include <span>
#include <string>

namespace ppp {
namespace bench {

int runTable1Inlining();
int runTable2Hotpaths();
int runFig9Accuracy();
int runFig10Coverage();
int runFig11Instrumented();
int runFig12Overhead();
int runFig13Ablation();
int runFig13bPoisoning();
int runFig13cOneAtATime();
int runTracePayoff();
int runEdgeInstrumentation();
int runKernelsOverhead();
int runNetVsPpp();
int runMetricComparison();

struct ExperimentInfo {
  const char *Name;      ///< The standalone binary's name.
  int (*Run)();
  bool UsesPrepare;      ///< Runs the steps 1-4 pipeline on the suite.
  bool UsesAlphaCosts;   ///< Also prepares under CostModel::alpha21164().
};

/// Every registered experiment, in the paper's order: tables, figures,
/// then the auxiliary studies.
std::span<const ExperimentInfo> experiments();

/// The row named \p Name, or nullptr.
const ExperimentInfo *findExperiment(const std::string &Name);

} // namespace bench
} // namespace ppp

#endif // PPP_BENCH_EXPERIMENTS_H
