//===- adapt/AdaptiveController.cpp - Online re-optimization ---------------===//

#include "adapt/AdaptiveController.h"

#include "analysis/CfgView.h"
#include "obs/Obs.h"
#include "opt/Unroller.h"
#include "trace/PathTiming.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace ppp;
using namespace ppp::adapt;

namespace {

/// Epochs in the rolling revert baseline (recentMeanCost()).
constexpr unsigned BaselineEpochs = 4;

/// Idle backoff stops doubling the epoch period at this multiple of
/// AdaptiveOptions::EpochCalls.
constexpr uint64_t BackoffLimit = 64;

} // namespace

AdaptiveController::AdaptiveController(const Module &CleanM,
                                       const InstrumentationResult &IRes,
                                       ProfileRuntime &Runtime,
                                       Interpreter &I,
                                       const AdaptiveOptions &O)
    : Clean(CleanM), IR(IRes), RT(Runtime), Interp(I), Opts(O) {
  assert(Clean.numFunctions() == IR.Plans.size() &&
         "instrumentation result does not match the clean module");
  assert(Opts.EpochCalls > 0 && "epoch cadence must be positive");
  Funcs.resize(Clean.numFunctions());
  Recent.assign(BaselineEpochs, 0);
  CurPeriod = Opts.EpochCalls;
  Interp.setEpochHook(this, CurPeriod);
}

uint64_t AdaptiveController::recentMeanCost() const {
  uint64_t Sum = 0, N = 0;
  for (uint64_t C : Recent)
    if (C) {
      Sum += C;
      ++N;
    }
  return N ? Sum / N : 0;
}

uint64_t AdaptiveController::tableTotal(FuncId F) const {
  uint64_t Total = 0;
  RT.table(F).forEach(
      [&Total](int64_t, uint64_t Count) { Total += Count; });
  return Total;
}

void AdaptiveController::sampleDeltas() {
  for (size_t FI = 0; FI < Funcs.size(); ++FI) {
    FuncState &S = Funcs[FI];
    if (S.Specialized || S.Blocked ||
        !IR.Plans[FI].Instrumented) {
      S.Delta = 0;
      continue;
    }
    uint64_t Total = tableTotal(static_cast<FuncId>(FI));
    S.Delta = Total - S.LastTotal;
    S.LastTotal = Total;
  }
}

FuncId AdaptiveController::pickCandidate() const {
  FuncId Best = -1;
  uint64_t BestScore = 0;
  for (size_t FI = 0; FI < Funcs.size(); ++FI) {
    const FuncState &S = Funcs[FI];
    if (S.Specialized || S.Blocked || S.Delta < Opts.MinPathDelta ||
        !IR.Plans[FI].Instrumented)
      continue;
    // Count delta times a per-activation work weight. The default
    // weight is static size, a proxy favoring functions where one
    // activation touches more instructions; with a timed-trace profile
    // attached, the *measured* mean exclusive cost per path execution
    // replaces it, separating cheap-but-frequent functions from
    // expensive ones the size proxy cannot tell apart.
    uint64_t Weight = Clean.function(static_cast<FuncId>(FI)).size();
    if (Opts.Timing) {
      double Mean =
          Opts.Timing->meanFunctionCost(static_cast<FuncId>(FI));
      if (Mean > 0.0)
        Weight = static_cast<uint64_t>(Mean);
    }
    uint64_t Score = S.Delta * Weight;
    if (Score > BestScore) {
      BestScore = Score;
      Best = static_cast<FuncId>(FI);
    }
  }
  return Best;
}

EdgeProfile AdaptiveController::adviceFor(FuncId F) {
  EdgeProfile EP;
  EP.Funcs.resize(Clean.numFunctions());
  // Zeros everywhere: the inliner skips zero-frequency sites and the
  // unroller sees zero-trip loops, so the whole bloat budget lands on
  // F. Vectors are still sized, because both transforms index every
  // function's EdgeFreq unconditionally.
  for (unsigned G = 0; G < Clean.numFunctions(); ++G) {
    CfgView Cfg(Clean.function(static_cast<FuncId>(G)));
    EP.Funcs[G].EdgeFreq.assign(Cfg.numEdges(), 0);
  }

  const FunctionPlan &Plan = IR.Plans[static_cast<size_t>(F)];
  FunctionEdgeProfile &FP = EP.Funcs[static_cast<size_t>(F)];
  RT.table(F).forEach([&](int64_t Index, uint64_t Count) {
    if (Count == 0)
      return;
    if (Index < 0 ||
        static_cast<uint64_t>(Index) >= Plan.NumPaths) {
      // Free-poison region: a cold path executed. By construction it is
      // rare; it contributes nothing to the hot-path advice.
      ++Stats.ColdPathsSkipped;
      return;
    }
    std::optional<PathKey> Key =
        Plan.decodePath(static_cast<uint64_t>(Index));
    if (!Key)
      return;
    int64_t C = static_cast<int64_t>(Count);
    for (int E : Key->EdgeIds)
      FP.EdgeFreq[static_cast<size_t>(E)] += C;
    // The terminating back edge was traversed once per execution; the
    // *starting* back edge is the previous path's terminator and is
    // already counted there.
    if (Key->TermCfgEdgeId >= 0)
      FP.EdgeFreq[static_cast<size_t>(Key->TermCfgEdgeId)] += C;
    if (Key->StartCfgEdgeId < 0)
      FP.Invocations += C;
  });
  return EP;
}

std::shared_ptr<const DecodedFunction>
AdaptiveController::buildVersion(FuncId F, const EdgeProfile &Advice) {
  // Whole-module clone: the inliner needs callee bodies, and both
  // transforms only touch functions with nonzero advice -- i.e. F.
  Module Work = Clean;
  InlineStats IS = runInliner(Work, Advice, Opts.InlineOpts);
  // The unroller's advice is in clean-CFG edge ids; once the inliner
  // spliced into F they are stale (and undersized), so inline and
  // unroll are alternatives per version, inlining first.
  if (!IS.ModifiedFunctions.count(F))
    runUnroller(Work, Advice);
  return std::make_shared<DecodedFunction>(decodeFunction(
      Work.function(F), Interp.versions().costs(), /*HashedTable=*/false));
}

void AdaptiveController::specialize(FuncId F) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
  EdgeProfile Advice = adviceFor(F);
  std::shared_ptr<const DecodedFunction> V = buildVersion(F, Advice);
  ++Stats.VersionsCompiled;
  if (!V)
    return;
  Interp.versions().install(F, std::move(V));
  uint64_t Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           T0)
          .count());
  Stats.SwapNanos += Ns;
  Stats.MaxSwapNanos = std::max(Stats.MaxSwapNanos, Ns);
  ++Stats.VersionsInstalled;
  if (Stats.FirstInstall < 0)
    Stats.FirstInstall = F;
  Funcs[static_cast<size_t>(F)].Specialized = true;
}

void AdaptiveController::noteRunBoundary() {
  LastCumCost = 0;
  HaveEpochCost = false;
}

void AdaptiveController::onEpoch(uint64_t DynInstrs, uint64_t Cost) {
  (void)DynInstrs;
  ++Stats.Epochs;
  // A period change inside onEpoch only takes effect at the next epoch
  // (the interpreter re-arms its countdown before calling the hook), so
  // the epoch that just finished ran at the current period.
  uint64_t FinishedPeriod = CurPeriod;

  // Cost is cumulative per run(); a drop means a new run started and
  // this epoch's delta would mix two runs. (Benchmarks should also call
  // noteRunBoundary() between runs; this is the backstop.)
  bool CleanDelta = true;
  if (Cost < LastCumCost) {
    LastCumCost = 0;
    HaveEpochCost = false;
    CleanDelta = false;
  }
  uint64_t EpochCost = Cost - LastCumCost;
  LastCumCost = Cost;
  // Normalized to the base cadence, so epochs measured at a backed-off
  // period stay comparable to base-period baselines.
  uint64_t NormCost = EpochCost * Opts.EpochCalls / FinishedPeriod;

  sampleDeltas();

  bool Acted = false;
  if (HasEval) {
    Acted = true;
    // Score the in-flight candidate. The first epoch after the install
    // is warm-up (in-flight activations of the old version drain).
    if (!Eval.WarmedUp) {
      Eval.WarmedUp = true;
    } else if (CleanDelta) {
      Eval.WindowCost += NormCost;
      ++Eval.WindowEpochs;
      if (Eval.WindowEpochs >= Opts.EvalEpochs) {
        double Mean = static_cast<double>(Eval.WindowCost) /
                      static_cast<double>(Eval.WindowEpochs);
        double Limit = static_cast<double>(Eval.BaselineEpochCost) *
                       (1.0 + Opts.RevertThresholdPct / 100.0);
        FuncState &S = Funcs[static_cast<size_t>(Eval.F)];
        if (Eval.BaselineEpochCost > 0 && Mean > Limit) {
          Interp.versions().revert(Eval.F);
          S.Specialized = false;
          S.Blocked = true; // A losing version is not retried.
          ++Stats.VersionsReverted;
        } else {
          ++Stats.VersionsKept;
        }
        HasEval = false;
      }
    }
  } else if (CleanDelta && HaveEpochCost) {
    // Hysteresis: one candidate at a time, and only with a trustworthy
    // pre-install baseline (the recent mean; a single epoch's cost
    // varies with which functions it happened to land on).
    FuncId F = pickCandidate();
    if (F >= 0) {
      specialize(F);
      if (Funcs[static_cast<size_t>(F)].Specialized) {
        Eval = Pending();
        Eval.F = F;
        Eval.BaselineEpochCost = recentMeanCost();
        if (!Eval.BaselineEpochCost)
          Eval.BaselineEpochCost = NormCost;
        HasEval = true;
      }
      Acted = true;
    }
  }

  if (CleanDelta) {
    HaveEpochCost = true;
    Recent[RecentIdx] = NormCost;
    RecentIdx = (RecentIdx + 1) % static_cast<unsigned>(Recent.size());
  }

  // Idle backoff: nothing to specialize and nothing under evaluation
  // means every table walk above was pure overhead; stretch the period.
  if (Acted) {
    IdleEpochs = 0;
  } else if (Opts.BackoffIdleEpochs &&
             ++IdleEpochs >= Opts.BackoffIdleEpochs) {
    IdleEpochs = 0;
    if (CurPeriod < Opts.EpochCalls * BackoffLimit) {
      CurPeriod *= 2;
      Interp.setEpochHook(this, CurPeriod);
      ++Stats.Backoffs;
    }
  }
}

void AdaptiveController::flushMetrics() const {
  obs::counter("adapt.epochs").inc(Stats.Epochs);
  obs::counter("adapt.versions.compiled").inc(Stats.VersionsCompiled);
  obs::counter("adapt.versions.installed").inc(Stats.VersionsInstalled);
  obs::counter("adapt.versions.reverted").inc(Stats.VersionsReverted);
  obs::counter("adapt.versions.kept").inc(Stats.VersionsKept);
  obs::counter("adapt.advice.cold_paths").inc(Stats.ColdPathsSkipped);
  obs::counter("adapt.backoffs").inc(Stats.Backoffs);
  obs::counter("adapt.swap.ns_total").inc(Stats.SwapNanos);
  obs::gauge("adapt.swap.ns_max")
      .raise(static_cast<double>(Stats.MaxSwapNanos));
  const VersionTable &VT = Interp.versions();
  obs::counter("adapt.table.functions").inc(VT.numFunctions());
  obs::counter("adapt.table.decoded").inc(VT.decodedFunctions());
  uint64_t Live = 0;
  for (size_t FI = 0; FI < VT.numFunctions(); ++FI)
    if (VT.currentVersion(static_cast<FuncId>(FI)) > 0)
      ++Live;
  obs::counter("adapt.table.live_versions").inc(Live);
}
