//===- bench/Experiments.h - Experiment registry ---------------*- C++ -*-===//
///
/// \file
/// Every deterministic experiment -- the paper's figures and tables, the
/// auxiliary studies, and the k-iteration study (kiter_blowup) --
/// exposes its whole program as one `run*()` function, registered once
/// in the experiments() table (bench/Experiments.cpp, library
/// ppp_experiments). suite_all, the only entry point, runs any subset
/// in one process, so the experiments share prepare()'s per-process memo
/// instead of each rebuilding every benchmark. An experiment takes no
/// knob: a depth, preset or benchmark outside its fixed axes is one
/// `ppp_cli run <bench> --profiler=<spec>` away.
///
/// Contract: a run function writes its complete report to stdout and
/// returns a process exit code; the full suite's stdout is pinned by
/// tests/golden/suite_all.txt. Experiments whose output is wall-clock
/// dependent (the wall-clock benches interp_throughput and
/// adaptive_steadystate) are deliberately not part of this registry.
///
/// Sec. 8's figures are four views of one set of profiling runs, so
/// every benchmark is profiled once per standard preset, into the
/// shared suiteResults() table: Figs. 9-12 (standard costs) print it,
/// and every other experiment takes its pp/tpp/ppp/trace baselines
/// and kiter_blowup its k = 1 cells from it. Only variant, checked,
/// Alpha-cost and k > 1 runs call runProfiler() themselves. The table
/// is also the input a claims check over the figures reads, instead
/// of their stdout.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_BENCH_EXPERIMENTS_H
#define PPP_BENCH_EXPERIMENTS_H

#include "Harness.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ppp {
namespace bench {

/// One benchmark's standard-cost profiling results.
struct SuiteResult {
  BenchmarkSpec Spec;
  /// The preparation every outcome below ran on (their plans hold
  /// analyses of its Expanded module, so it lives as long as they do).
  std::shared_ptr<const PreparedBenchmark> Prepared;
  EdgeProfilingOutcome Edge;
  ProfilerOutcome Pp, Tpp, Ppp, Trace, TraceTimed;
};

/// The shared table, one row per spec2000Suite() benchmark in suite
/// order. The first call builds it on a runSuiteParallel() pool; call
/// it from the main thread, never from inside a worker.
const std::vector<SuiteResult> &suiteResults();

/// runSuiteParallel() with each benchmark's row: \p Work(Row) runs once
/// per benchmark, after the table is built on the calling thread.
template <typename WorkFn>
auto runOverSuite(WorkFn Work)
    -> std::vector<std::invoke_result_t<WorkFn, const SuiteResult &>> {
  const std::vector<SuiteResult> &Rows = suiteResults();
  return runParallel(
      Rows, parallelJobs(Rows.size()),
      [](const SuiteResult &R) -> const std::string & { return R.Spec.Name; },
      Work);
}

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
int runKiterBlowup();

struct ExperimentInfo {
  const char *Name;      ///< suite_all's argument for this row.
  int (*Run)();
};

/// Every registered experiment, in the paper's order: tables, figures,
/// then the auxiliary studies, with the k-iteration study last.
std::span<const ExperimentInfo> experiments();

/// The row named \p Name, or nullptr.
const ExperimentInfo *findExperiment(const std::string &Name);

} // namespace bench
} // namespace ppp

#endif // PPP_BENCH_EXPERIMENTS_H
