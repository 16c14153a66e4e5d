//===- profile/Collectors.h - Execution-observer profilers -----*- C++ -*-===//
///
/// \file
/// Interpreter observers that collect profiles during a run:
///
///  - EdgeProfiler: exact edge counts (the "free" edge profile).
///  - PathTracer: the oracle path profile. It watches control flow and
///    records every completed Ball-Larus path (ending at back edges and
///    returns), giving exact ground-truth path frequencies that the
///    accuracy/coverage metrics compare estimated profiles against.
///
/// profileClean() is the one clean observed run every profiling
/// pipeline starts from: both observers attached, one run, the
/// profiles and the run's result handed back together.
///
/// Both observers own their CfgViews, so the observed Module must
/// outlive them and must not be mutated while attached.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PROFILE_COLLECTORS_H
#define PPP_PROFILE_COLLECTORS_H

#include "analysis/LoopInfo.h"
#include "interp/Interpreter.h"
#include "profile/EdgeProfile.h"
#include "profile/PathProfile.h"

#include <memory>
#include <vector>

namespace ppp {

/// Collects an EdgeProfile while the interpreter runs.
class EdgeProfiler : public ExecObserver {
public:
  explicit EdgeProfiler(const Module &M);

  void onFunctionEnter(FuncId F) override;
  void onEdge(FuncId F, BlockId Src, unsigned SuccIdx) override;

  /// The profile collected so far.
  const EdgeProfile &profile() const { return Profile; }
  EdgeProfile takeProfile() { return std::move(Profile); }

private:
  std::vector<CfgView> Views;
  EdgeProfile Profile;
};

/// Collects the exact (oracle) path profile while the interpreter runs.
class PathTracer : public ExecObserver {
public:
  explicit PathTracer(const Module &M);

  void onFunctionEnter(FuncId F) override;
  void onFunctionExit(FuncId F) override;
  void onEdge(FuncId F, BlockId Src, unsigned SuccIdx) override;

  const PathProfile &profile() const { return Profile; }
  PathProfile takeProfile() { return std::move(Profile); }

  const CfgView &cfgView(FuncId F) const {
    return Views[static_cast<size_t>(F)];
  }

private:
  struct TraceFrame {
    FuncId F = -1;
    PathKey Current;
  };

  std::vector<CfgView> Views;
  std::vector<LoopInfo> Loops;
  std::vector<TraceFrame> Stack;
  PathProfile Profile;
};

/// What one clean observed run produced.
struct CleanProfile {
  EdgeProfile EP;
  PathProfile Oracle;
  RunResult Res;

  CleanProfile() : Oracle(0) {}
};

/// Runs \p M once under \p IO with an EdgeProfiler and a PathTracer
/// attached. On a hang Res.FuelExhausted is set and the profiles hold
/// whatever was observed before fuel ran out; callers check it. With
/// obs::interpStatsEnabled(), a completed run records its interp.op.*.
CleanProfile profileClean(const Module &M,
                          const InterpOptions &IO = InterpOptions());

/// Per-function block execution counts of \p M's run that produced
/// \p EP.
std::vector<std::vector<int64_t>> blockFreqs(const Module &M,
                                             const EdgeProfile &EP);

} // namespace ppp

#endif // PPP_PROFILE_COLLECTORS_H
