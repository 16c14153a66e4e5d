//===- trace/PathTiming.h - Per-path cost attribution ----------*- C++ -*-===//
///
/// \file
/// The timing side of a timed trace decode: PathTimingProfile receives
/// one record() per run-length-merged counting event from
/// TraceDecoder::stitch(), in execution order, carrying the exclusive
/// cost each path execution accrued (callee cost belongs to the
/// callee's paths; see trace/TraceDecoder.h for the attribution rules).
///
/// Three views are maintained:
///
///  - Per-path latency: for every (function, path index) pair, the
///    execution count, total/min/max exclusive cost, and a log2-bucket
///    cost histogram (bucket B counts executions whose per-execution
///    cost C has bit_width(C) == B, matching obs::Histogram's bucket
///    convention). Because merged events share one per-execution cost,
///    a Count=N event lands N times in one bucket cheaply.
///  - Per-function aggregates (count, total exclusive cost): the
///    hotness sensor the adaptive controller's time-weighted candidate
///    picker consumes (adapt/AdaptiveController.h).
///  - Phase structure: the event stream is cut into fixed-size windows
///    (measured in path executions); each window's hot set is its top-K
///    paths by attributed cost (ties broken by key, so the report is
///    deterministic), and consecutive windows are compared by Jaccard
///    similarity of their hot sets. A window whose similarity to its
///    predecessor falls below the threshold starts a new phase. stitch()
///    feeds events in execution order regardless of how many threads
///    decoded chunks, so the report is independent of PPP_JOBS.
///
/// Conservation: attributedCost() + unattributedCost() == totalCost()
/// after a successful decode (the invariant battery checks this equals
/// the interpreter's own run cost for complete runs).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_TRACE_PATHTIMING_H
#define PPP_TRACE_PATHTIMING_H

#include "ir/Instr.h"

#include <cstdint>
#include <map>
#include <vector>

namespace ppp {
namespace trace {

/// Identity of one profiled path: function plus Ball-Larus path index
/// (concrete, post-stitch). Ordered so reports iterate deterministically.
struct PathKey {
  FuncId F = -1;
  int64_t Index = 0;

  bool operator<(const PathKey &O) const {
    return F != O.F ? F < O.F : Index < O.Index;
  }
  bool operator==(const PathKey &O) const {
    return F == O.F && Index == O.Index;
  }
};

/// Latency statistics for one path. Buckets follow obs::Histogram's
/// log2 convention: bucket 0 holds cost == 0, bucket B holds
/// 2^(B-1) <= cost < 2^B; 65 buckets cover all of uint64.
struct PathTimingEntry {
  uint64_t Count = 0;
  uint64_t TotalCost = 0;
  uint64_t MinCost = 0; ///< 0 when Count == 0.
  uint64_t MaxCost = 0;
  uint64_t Buckets[65] = {};

  bool operator==(const PathTimingEntry &O) const = default;
};

/// Per-function aggregate of all attributed path executions.
struct FuncTiming {
  uint64_t Count = 0;
  uint64_t TotalCost = 0;
};

/// One closed phase-detection window.
struct PhaseWindow {
  std::vector<PathKey> HotSet; ///< Top-K by window cost, sorted by key.
  uint64_t Execs = 0;          ///< Path executions in the window.
  uint64_t Cost = 0;           ///< Attributed cost in the window.
  double Similarity = 1.0;     ///< Jaccard vs. previous window (1.0 for w0).
};

/// Tunables for the windowed phase detector. Defaults suit the bench
/// workloads; the ppp_timing CLI exposes them as flags.
struct PathTimingOptions {
  uint64_t PhaseWindowExecs = 4096; ///< Path executions per window.
  uint32_t PhaseTopK = 8;           ///< Hot-set size per window.
  double PhaseThreshold = 0.5;      ///< Similarity below this => boundary.
};

class PathTimingProfile {
public:
  explicit PathTimingProfile(const PathTimingOptions &O = PathTimingOptions())
      : Opts(O) {}

  /// One merged counting event: \p Count executions of path \p Index in
  /// \p F, each with exclusive cost \p CostEach. Called by stitch() in
  /// execution order.
  void record(FuncId F, int64_t Index, uint64_t Count, uint64_t CostEach);

  /// Cost drained without an owning counting op (uninstrumented or
  /// skipped activations, post-count remainders, truncated-run stacks).
  void recordUnattributed(uint64_t Cost) { Unattributed += Cost; }

  /// Total replayed cost of the decoded run (the interpreter's cost
  /// counter at the last stamp / chunk end). Set once by stitch().
  void setTotalCost(uint64_t Cost) { Total = Cost; }

  uint64_t totalCost() const { return Total; }
  uint64_t unattributedCost() const { return Unattributed; }
  uint64_t attributedCost() const { return Attributed; }
  uint64_t executions() const { return Execs; }

  const std::map<PathKey, PathTimingEntry> &paths() const { return Paths; }
  const std::map<FuncId, FuncTiming> &functions() const { return Funcs; }

  /// Mean exclusive cost per attributed execution of \p F, or 0 when
  /// the function has no attributed executions.
  double meanFunctionCost(FuncId F) const;

  /// Closed phase-detection windows (a trailing partial window is
  /// flushed by finishPhases()).
  const std::vector<PhaseWindow> &windows() const { return Windows; }

  /// Indices of windows that start a new phase (similarity to their
  /// predecessor below the threshold). Window 0 is never a boundary.
  std::vector<uint32_t> phaseBoundaries() const;

  /// Closes the trailing partial window, if any. Idempotent; call after
  /// the decode completes and before reading windows().
  void finishPhases();

  /// Adds this profile's trace.timing.* counts to the obs registry, so
  /// a report covering several timed runs holds their sums.
  void flushMetrics() const;

private:
  void closeWindow();

  PathTimingOptions Opts;
  std::map<PathKey, PathTimingEntry> Paths;
  std::map<FuncId, FuncTiming> Funcs;
  uint64_t Total = 0;
  uint64_t Attributed = 0;
  uint64_t Unattributed = 0;
  uint64_t Execs = 0;

  // Phase-detection state: the accumulating window.
  std::map<PathKey, uint64_t> WindowCost;
  uint64_t WindowExecs = 0;
  uint64_t WindowCostSum = 0;
  std::vector<PhaseWindow> Windows;
};

} // namespace trace
} // namespace ppp

#endif // PPP_TRACE_PATHTIMING_H
