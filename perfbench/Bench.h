//===- perfbench/Bench.h - Repository benchmark, shared parts --*- C++ -*-===//
///
/// \file
/// Declarations shared by the benchmark's workloads: the run options,
/// the metric report, the suite set-up every workload starts from, and
/// the blocked clean-vs-profiled wall-clock comparison. README.md in this
/// directory explains the workloads and what each metric means.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Harness.h"

#include "interp/Interpreter.h"
#include "pathprof/Profilers.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Chrome-trace span dump (traced runs only).
};

/// Every metric a run reports. End-to-end metrics come from untraced
/// runs, per-layer metrics from traced ones; each workload fills the
/// metrics that apply to it and leaves the layers it does not exercise
/// at zero work.
class Report {
public:
  Report();

  void set(const std::string &Name, double Value);
  double get(const std::string &Name) const;

  /// Counts one attempted unit (cycle or session), failed or not.
  void attempt(bool Ok);
  /// Records a failed check outside any cycle or session; it counts as
  /// one more attempted unit, failed.
  void fail(const std::string &What);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the human-readable table and then, as the last line, the
  /// JSON result object with the end-to-end (untraced) or per-layer
  /// (traced) metrics.
  void print(bool Trace) const;

private:
  struct Metric {
    std::string Unit;
    bool EndToEnd = false;
    double Value = 0;
  };
  std::map<std::string, Metric> Metrics;
  std::vector<std::string> Order;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

/// Prints \p Msg and exits with code 1, printing no result: for set-up
/// failures, after which no measurement would mean anything.
[[noreturn]] void fatal(const std::string &Msg);

/// The four profilers every online cycle rotates through.
std::vector<ppp::ProfilerOptions> cycleProfilers();

/// Modules drawn per recipe: more draws average out how much one
/// draw's shape moves a run's totals from seed to seed.
inline constexpr unsigned DrawsPerRecipe = 4;

/// DrawsPerRecipe draws of each INT recipe of spec2000Suite(). Each draw
/// re-draws the recipe's generator seed from \p Seed, so shapes keep
/// their class character; the first draw under seed 0 is the paper's
/// recipe itself.
std::vector<ppp::BenchmarkSpec> suiteRecipes(uint64_t Seed);

/// One benchmark after set-up.
struct PreparedModule {
  ppp::bench::PreparedBenchmark B;
  ppp::RunResult Clean; ///< Reference clean run of B.Expanded.
};

/// Result of prepareSuite(): the modules plus set-up accounting.
struct SuiteSetup {
  std::vector<PreparedModule> Mods;
  uint64_t Digest = 0; ///< FNV-1a over the serialized modules.
  double GenerateMs = 0;
  double PrepareMs = 0;
  double Seconds = 0;
};

/// Generates, calibrates and prepares every recipe with
/// prepareUncached() (never the preparation cache), then runs each
/// expanded module once clean as the output reference. Exits on a
/// set-up failure.
SuiteSetup prepareSuite(const std::vector<ppp::BenchmarkSpec> &Specs);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr unsigned SetupReps = 3;

/// Runs set-up SetupReps times (keeping the last result) and reports
/// setup_s as the median, plus the set-up layers' work. \p Extra, when
/// given, is a workload's own set-up run after each repetition's suite
/// set-up; it returns its seconds, which count toward setup_s. Exits if
/// two repetitions produced different inputs.
SuiteSetup prepareSuiteMedian(
    const std::vector<ppp::BenchmarkSpec> &Specs, Report &R,
    const std::function<double(const SuiteSetup &)> &Extra = {});

/// After a traced run: sets self_ms.<span> for each of \p UnitSpans as
/// self time per traced unit (\p Units cycles or rounds), and for the
/// set-up spans (generate, prepare) per set-up repetition; prints the
/// self time of every recorded span.
void reportSelfTimes(Report &R, std::initializer_list<const char *> UnitSpans,
                     double Units);

/// Blocked wall-clock comparison of clean runs against profiled runs of
/// the same expanded module, for every module and every profiler plus
/// an A/A pair (clean against clean). Each step() measures one module:
/// per variant, blocks of repetitions in ABBA order, each block led
/// by an untimed warm-up run, never alternating run by run. Workloads
/// interleave steps with their timed loop so the comparison samples the
/// whole run; samples pool per module across steps, and ratios are
/// pooled medians. An A/A ratio more than 1% from 1, beyond its noise,
/// prints a warning.
class BlockedComparison {
public:
  BlockedComparison(const std::vector<PreparedModule> &Mods,
                    std::vector<ppp::ProfilerOptions> Profs);

  /// Measures the next module (round robin); run mismatches fail \p R.
  void step(Report &R);
  /// Steps until every module has been measured at least once.
  void cover(Report &R) {
    while (Next < Mods.size())
      step(R);
  }
  /// Fills clean_mips, profiled_mips and the interp.* run metrics, and
  /// warns when the A/A pair shows a bias.
  void report(Report &R) const;

private:
  struct Pair {
    std::vector<double> A, B; ///< Clean and variant run times, ms.
    /// Variant / clean ratio of each pair of adjacent blocks.
    std::vector<double> BlockRatios;
    uint64_t CostA = 0, CostB = 0;
  };
  const std::vector<PreparedModule> &Mods;
  std::vector<ppp::ProfilerOptions> Profs;
  std::vector<std::vector<Pair>> Samples; ///< [module][variant]
  size_t Next = 0;
};

/// Workload entry points.
void runOnline(const RunOptions &O, Report &R);
void runServed(const RunOptions &O, Report &R);

} // namespace pb

#endif // PERFBENCH_BENCH_H
