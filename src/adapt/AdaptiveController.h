//===- adapt/AdaptiveController.h - Online re-optimization -----*- C++ -*-===//
///
/// \file
/// The dynamic-optimizer half the paper's profiles exist to feed: a
/// score-and-switch multi-version loop (after tunadb's
/// ProfileGuidedOptimizer and profile-guided multi-version binary
/// rewriting) driven by *live* PPP counters.
///
/// The controller registers itself as the interpreter's EpochHook.
/// Every EpochCalls Call instructions it:
///
///  1. **Samples** the attached ProfileRuntime: per function, the delta
///     of total path counts since the previous epoch is the hotness
///     signal, weighted by function size as a work proxy -- or, when
///     AdaptiveOptions::Timing holds a timed-trace profile, by the
///     function's measured mean cost per path execution (PathTime
///     hotness).
///  2. **Specializes** the hottest not-yet-specialized function: its
///     nonzero counters decode (FunctionPlan::decodePath) into hot
///     paths, whose CFG edges accumulate into a one-function edge
///     profile; a clean-module clone runs the `inline,unroll` pipeline
///     under that advice. Zeros everywhere else focus the inliner's
///     whole-program bloat budget on this one function -- the adaptive
///     advantage over the static pipeline, which spreads the same
///     budget across every phase's hot code at once. The result
///     decodes into a new code version, installed in the interpreter's
///     VersionTable; it goes live at the next call.
///  3. **Scores** the installed version: per-epoch cost deltas (the
///     interpreter's deterministic cost model, so scoring is
///     bit-reproducible) over an evaluation window, against the epoch
///     cost just before the install. A version that regresses the
///     epoch cost beyond RevertThresholdPct is reverted to the base
///     decode and the function is not retried (hysteresis: one
///     candidate in flight at a time, a warm-up epoch before the
///     window opens).
///
/// Installed versions derive from the *clean* module, so a specialized
/// function also sheds its profiling instrumentation -- the counters
/// have served their purpose -- while every run stays bit-identical in
/// ReturnValue/MemChecksum to the clean module (the fuzz battery's
/// checkAdaptive invariant, and tools/adapt_smoke.sh).
///
/// Everything is synchronous and deterministic: the hook runs between
/// instructions on the interpreter's thread, and the controller
/// persists across run() invocations (main itself can only swap at the
/// next run's entry, since it never returns mid-run).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_ADAPT_ADAPTIVECONTROLLER_H
#define PPP_ADAPT_ADAPTIVECONTROLLER_H

#include "interp/Interpreter.h"
#include "opt/Inliner.h"
#include "pathprof/Profilers.h"

#include <memory>
#include <vector>

namespace ppp {

namespace trace {
class PathTimingProfile;
} // namespace trace

namespace adapt {

struct AdaptiveOptions {
  /// Calls between epochs (the controller's sampling cadence).
  uint64_t EpochCalls = 2048;

  /// Minimum path-count delta in one epoch before a function is
  /// considered hot enough to specialize.
  uint64_t MinPathDelta = 32;

  /// Evaluation window (epochs) for a freshly installed version, after
  /// one warm-up epoch that drains in-flight activations of the old
  /// version. One candidate is in flight at a time.
  unsigned EvalEpochs = 2;

  /// Revert when the evaluation window's mean epoch cost exceeds the
  /// pre-install baseline by more than this percentage. The baseline is
  /// the mean of the last few epoch costs, not a single epoch: which
  /// functions an epoch happens to land on varies, and a one-epoch
  /// baseline turns that mix noise into false reverts.
  double RevertThresholdPct = 5.0;

  /// When no candidate qualifies and nothing is under evaluation for
  /// this many consecutive epochs, the controller doubles its epoch
  /// period (up to a fixed cap): once the hot set is specialized,
  /// sampling every table each epoch is pure overhead. A later phase's
  /// new hot function is still caught within one backed-off epoch. 0
  /// disables backoff.
  unsigned BackoffIdleEpochs = 8;

  /// The inliner options of the function-scoped re-optimization
  /// pipeline (the unroller runs at its defaults). The inliner's
  /// CodeBloat budget is measured against the whole program but spent
  /// on one function per version build.
  InlinerOptions InlineOpts;

  /// PathTime hotness: per-path cost attribution from a prior
  /// timed-trace run of the same workload (trace/PathTiming; must
  /// outlive the controller, read-only). When set, a function's count
  /// delta is weighted by its *measured* mean exclusive cost per path
  /// execution instead of its static size, which separates a
  /// cheap-but-frequent function from a similarly-sized expensive one.
  /// A function absent from the profile keeps its static size, so a
  /// partial profile degrades gracefully to count hotness.
  const trace::PathTimingProfile *Timing = nullptr;
};

struct AdaptStats {
  uint64_t Epochs = 0;
  uint64_t VersionsCompiled = 0;  ///< buildVersion() calls.
  uint64_t VersionsInstalled = 0;
  uint64_t VersionsReverted = 0;
  uint64_t VersionsKept = 0;      ///< Survived their evaluation window.
  uint64_t ColdPathsSkipped = 0;  ///< Poison-region indices in advice.
  uint64_t Backoffs = 0;          ///< Epoch-period doublings.
  uint64_t SwapNanos = 0;         ///< Total build+install wall time.
  uint64_t MaxSwapNanos = 0;      ///< Worst single swap.
  /// The first function ever specialized, -1 while none has been.
  /// Reverts do not clear it: it records the controller's initial
  /// candidate choice (what the hotness source pointed at first), not
  /// the surviving version set.
  FuncId FirstInstall = -1;
};

class AdaptiveController : public EpochHook {
public:
  /// \p Clean is the uninstrumented module \p IR was built from; both
  /// must outlive the controller, as must \p RT (the runtime the
  /// interpreter counts into) and \p Interp (which must execute
  /// IR.Instrumented with \p RT attached). Registers itself as the
  /// interpreter's epoch hook.
  AdaptiveController(const Module &Clean, const InstrumentationResult &IR,
                     ProfileRuntime &RT, Interpreter &Interp,
                     const AdaptiveOptions &Opts = AdaptiveOptions());

  void onEpoch(uint64_t DynInstrs, uint64_t Cost) override;

  /// Tells the controller a new run() is starting, so the first
  /// epoch's cost delta is not computed against the previous run's
  /// counter. (onEpoch also detects the boundary heuristically; this
  /// makes it exact.)
  void noteRunBoundary();

  const AdaptStats &stats() const { return Stats; }
  const AdaptiveOptions &options() const { return Opts; }

  /// Whole-program edge advice containing only \p F's live hot-path
  /// flow (decoded from its counters); every other function is zero.
  /// Exposed for tests.
  EdgeProfile adviceFor(FuncId F);

  /// Flushes the controller's lifetime totals into the obs registry
  /// (adapt.* counters), including version-table occupancy, so a report
  /// over several sessions sums them; adapt.swap.ns_max is the gauge
  /// holding the worst swap of any session.
  void flushMetrics() const;

protected:
  /// Compiles a new version of \p F specialized along \p Advice:
  /// clean-module clone, inline then (if the inliner left F untouched;
  /// its advice would be stale on the spliced CFG) unroll, decode.
  /// Virtual so tests can substitute deliberately bad versions and
  /// drive the revert path deterministically.
  virtual std::shared_ptr<const DecodedFunction>
  buildVersion(FuncId F, const EdgeProfile &Advice);

private:
  uint64_t tableTotal(FuncId F) const;
  void sampleDeltas();
  FuncId pickCandidate() const;
  void specialize(FuncId F);

  const Module &Clean;
  const InstrumentationResult &IR;
  ProfileRuntime &RT;
  Interpreter &Interp;
  AdaptiveOptions Opts;
  AdaptStats Stats;

  struct FuncState {
    uint64_t LastTotal = 0; ///< Table total at the previous epoch.
    uint64_t Delta = 0;     ///< This epoch's count delta.
    bool Specialized = false; ///< Currently running an installed version.
    bool Blocked = false;     ///< Reverted once; never retried.
  };
  std::vector<FuncState> Funcs;

  /// The one candidate under evaluation, if any.
  struct Pending {
    FuncId F = -1;
    uint64_t BaselineEpochCost = 0; ///< Mean epoch cost before install.
    uint64_t WindowCost = 0;        ///< Accumulated over the window.
    unsigned WindowEpochs = 0;
    bool WarmedUp = false; ///< First post-install epoch is discarded.
  };
  Pending Eval;
  bool HasEval = false;

  /// Rolling window of recent clean epoch costs (the revert baseline).
  uint64_t recentMeanCost() const;
  std::vector<uint64_t> Recent;
  unsigned RecentIdx = 0;

  uint64_t CurPeriod = 0;  ///< Current epoch period (calls).
  unsigned IdleEpochs = 0; ///< Consecutive do-nothing epochs.

  uint64_t LastCumCost = 0;   ///< Cost at the previous epoch (this run).
  bool HaveEpochCost = false; ///< A full epoch of this run has elapsed.
};

} // namespace adapt
} // namespace ppp

#endif // PPP_ADAPT_ADAPTIVECONTROLLER_H
