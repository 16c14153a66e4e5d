//===- workload/Suite.h - The SPEC2000-like benchmark suite ----*- C++ -*-===//
///
/// \file
/// Eighteen synthetic benchmarks named after the SPEC2000 programs the
/// paper evaluates (Sec. 7.2; gzip/vortex/gcc are omitted there too).
/// Each recipe tunes the generator toward its namesake's path-profiling
/// character -- branchiness, loop depth and trip counts, branch skew,
/// call-graph density -- which is what accuracy, coverage, and overhead
/// actually depend on. INT-style recipes are branchy with short blocks
/// and many warm paths; FP-style recipes are loop-heavy with long
/// blocks and few, highly-biased paths.
///
/// Every benchmark is calibrated (by scaling main's driver loop) to a
/// common dynamic-size target so per-benchmark numbers are comparable.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_WORKLOAD_SUITE_H
#define PPP_WORKLOAD_SUITE_H

#include "workload/Generator.h"

#include <optional>
#include <string>
#include <vector>

namespace ppp {

/// One benchmark: generator parameters plus pipeline flags.
struct BenchmarkSpec {
  std::string Name;
  WorkloadParams Params;
  bool IsFp = false;
  /// Emulates the paper's cross-module-inlining limitation (crafty,
  /// perlbmk, mesa run with 0% calls inlined).
  bool AllowInlining = true;
  uint64_t TargetDynInstrs = 1'500'000;
};

/// The 18 benchmark recipes in the paper's order (INT then FP).
std::vector<BenchmarkSpec> spec2000Suite();

/// The suite recipe named \p Name, or nullopt when there is none.
std::optional<BenchmarkSpec> findBenchmark(const std::string &Name);

/// Generates \p Spec's module with main's driver loop scaled so a clean
/// run lands near TargetDynInstrs.
Module buildCalibrated(const BenchmarkSpec &Spec);

} // namespace ppp

#endif // PPP_WORKLOAD_SUITE_H
