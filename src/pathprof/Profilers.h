//===- pathprof/Profilers.h - PP / TPP / PPP drivers -----------*- C++ -*-===//
///
/// \file
/// The profile-guided profiling drivers. A single options struct exposes
/// every technique as a toggle so the paper's three profilers are
/// presets and Figure 13's leave-one-out ablations are one-line edits:
///
///   PP  (Ball-Larus):  instrument everything; static-heuristic
///                      spanning tree; Fig. 2 numbering.
///   TPP (Joshi et al.): + local cold criterion (gated: only when it
///                      moves the routine from hash to array), obvious
///                      loop disconnection, obvious-routine skipping.
///                      Free poisoning stands in for TPP's poison check,
///                      as in the paper's own TPP implementation.
///   PPP (this paper):  + global & self-adjusting cold criteria, smart
///                      numbering/event counting, push-through-cold,
///                      low-coverage routine gate, ungated cold removal.
///
/// instrumentModule() returns an instrumented clone plus a per-function
/// plan that can map path numbers to concrete paths and back -- the glue
/// between the runtime counters and the metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PATHPROF_PROFILERS_H
#define PPP_PATHPROF_PROFILERS_H

#include "analysis/BLDag.h"
#include "interp/ProfileRuntime.h"
#include "ir/Module.h"
#include "pathprof/Lowering.h"
#include "pathprof/Numbering.h"
#include "pathprof/Placement.h"
#include "profile/EdgeProfile.h"
#include "profile/Merge.h"
#include "profile/PathKey.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace ppp {

class FunctionAnalysisManager;

/// Every knob of the instrumentation pipeline (paper defaults).
struct ProfilerOptions {
  std::string Name = "pp";

  /// Sec. 4.5: number edges by frequency and build the event-counting
  /// spanning tree from the edge profile instead of static heuristics.
  bool SmartNumbering = false;

  /// Sec. 3.2: local cold criterion (freq < fraction of source block).
  bool LocalColdCriterion = false;
  double LocalColdFraction = 0.05;

  /// Sec. 4.2: global cold criterion (freq < fraction of program flow).
  bool GlobalColdCriterion = false;
  double GlobalColdFraction = 0.001;

  /// Sec. 4.3: raise the global criterion until no hashing is needed.
  bool SelfAdjust = false;
  double SelfAdjustFactor = 1.5;
  unsigned SelfAdjustMaxIters = 20;

  /// Sec. 3.2 (TPP): remove cold edges only when that turns a
  /// would-be-hashed routine into an array routine.
  bool ColdOnlyToAvoidHash = false;

  /// Sec. 3.2: disconnect obvious high-trip loops.
  bool ObviousLoopDisconnect = false;
  double ObviousLoopMinTrip = 10.0;

  /// Sec. 3.2: skip routines whose paths are all obvious.
  bool SkipObviousRoutines = false;

  /// Sec. 4.1: skip routines the edge profile already covers well.
  bool LowCoverageGate = false;
  double CoverageThreshold = 0.75;

  /// Sec. 4.4: pushing mode.
  PushMode Push = PushMode::Blocked;

  /// Sec. 4.6: free poisoning (paper default for all three profilers)
  /// or original TPP's checked poisoning (ablation).
  PoisonStyle Poison = PoisonStyle::Free;

  /// Sec. 7.4: routines with more paths than this hash their counters.
  uint64_t HashThreshold = 4000;

  /// k-iteration path profiling (D'Elia & Demetrescu, arXiv 1304.5197):
  /// profile chains of up to this many acyclic path segments joined at
  /// loop back edges. 1 (the default) is plain Ball-Larus behavior --
  /// every back edge truncates the path. Values above 1 switch a
  /// function's counting to the chained ProfChain* forms with a
  /// hash-organized table unless the k-expanded space still fits an
  /// array. Functions whose k-path count or id space overflows are
  /// demoted to k=1 per function with a recorded reason (never a silent
  /// wrap). Spec suffix: +kiter<k>. Capped at MaxKIterations.
  uint64_t KIterations = 1;

  /// Documented ceiling for KIterations: chain ids live in [1, M^k) for
  /// a per-function digit base M >= 3, and M^k must stay below 2^63, so
  /// k beyond 39 cannot help even the narrowest loop; 16 already covers
  /// every realistic depth while keeping the validation message honest.
  static constexpr uint64_t MaxKIterations = 16;

  /// Trace collection backend: instrument/plan exactly like the base
  /// preset, but collect by recording branch-target packets on the
  /// clean module and reconstructing the counters offline
  /// (src/trace/TraceDecoder) instead of counting on the hot path.
  bool TraceBackend = false;

  /// Timing-annotated tracing: in addition to branch-target packets,
  /// the recording interpreter stamps its accumulated cost counter at
  /// every Ret (delta-compressed), and the offline decode attributes
  /// inter-stamp cost to path executions (src/trace/PathTiming).
  /// Requires TraceBackend.
  bool TraceTimestamps = false;

  static ProfilerOptions pp();
  static ProfilerOptions tpp();
  static ProfilerOptions ppp();
  /// PPP for an online controller (src/adapt): same numbering and
  /// poisoning, but the overhead-minimization gates (skip-obvious,
  /// low-coverage) are off. Those gates assume the profile is the
  /// product; an adaptive deployment needs live counters in every
  /// routine as its hotness sensor, and sheds them routine by routine
  /// as it specializes.
  static ProfilerOptions adaptive();
  /// PPP's plan with trace-backend collection (TraceBackend = true).
  static ProfilerOptions trace();
  /// trace() with cost stamps (TraceTimestamps = true): the "trace+time"
  /// preset behind per-path latency attribution.
  static ProfilerOptions traceTimed();
  /// TPP as Joshi et al. published it: poison checks on every count in
  /// routines with cold edges (the paper's implementation substitutes
  /// free poisoning; this preset exists to measure the difference).
  static ProfilerOptions tppChecked();
};

/// Why a function received no instrumentation.
enum class SkipReason : uint8_t {
  NotSkipped,
  NoPaths,      ///< Cold removal eliminated every path.
  AllObvious,   ///< Every path has a defining edge (Sec. 3.2).
  HighCoverage, ///< Edge profile coverage above threshold (Sec. 4.1).
  Overflow,     ///< Path count exceeds 2^64; cannot number.
};

/// Why a function requested at k > 1 fell back to plain k=1 counting.
/// Recorded per function so demotions are observable, never silent.
enum class KDemoteReason : uint8_t {
  None,              ///< Chained as requested (or nothing to chain).
  PathCountOverflow, ///< k-path count saturated 64 bits.
  IdSpaceOverflow,   ///< M^k - 1 would not fit the int64 path register.
  CheckedPoisoning,  ///< Checked poisoning has no chained counting form.
  TraceBackend,      ///< The trace decoder replays acyclic sites only.
};

/// Printable name of \p R ("none", "path-count-overflow", ...).
const char *kDemoteReasonName(KDemoteReason R);

/// Per-function instrumentation plan and decode metadata. Holds
/// analyses over the *original* module, which must outlive the plan.
class FunctionPlan {
public:
  bool Instrumented = false;
  SkipReason Skip = SkipReason::NotSkipped;
  uint64_t NumPaths = 0;
  PathTable::Kind TableKind = PathTable::Kind::None;
  int64_t ArraySize = 0;
  double EdgeCoverage = 0.0; ///< DF/F of the edge profile (branch flow).
  uint64_t StaticOps = 0;    ///< Profiling instructions placed.
  std::set<int> ColdEdges;
  std::set<int> DisconnectedBackEdges;

  // k-iteration chaining (tentpole). KEffective > 1 iff this function
  // counts chained ids via the ProfChain* forms; otherwise every field
  // below is its vacuous k=1 value and decode goes through decodePath.
  uint64_t KRequested = 1; ///< ProfilerOptions::KIterations at plan time.
  uint64_t KEffective = 1; ///< Actual chain depth after demotion.
  KDemoteReason KDemote = KDemoteReason::None;
  uint64_t NumKPaths = 0; ///< Valid k-path ids (k-expanded path count).
  int64_t ChainMult = 0;  ///< Digit base M (MaxIndex + 2); 0 when unchained.
  int64_t IdBound = 0;    ///< Chained ids lie in [1, IdBound); M^KEffective.

  bool chained() const { return Instrumented && KEffective > 1; }

  /// The instrumentation sites lowering materialized, in clean-CFG
  /// terms (entry / per-edge / pre-Ret op lists). The trace decoder
  /// replays these against recorded control flow to reconstruct the
  /// counters the instrumented module would have produced.
  SiteOps Sites;

  /// Shared with (and usually served by) a FunctionAnalysisManager;
  /// the shared_ptr keeps the analyses alive past cache invalidation.
  std::shared_ptr<const CfgView> Cfg;
  std::shared_ptr<const LoopInfo> Loops;
  std::unique_ptr<BLDag> Dag; ///< Final instrumented DAG (Vals assigned).
  NumberingResult Numbering;

  /// The unique path number of \p Key, or nullopt if the path is not
  /// instrumented (crosses a cold/disconnected edge, or the routine is
  /// skipped).
  std::optional<uint64_t> pathNumberOf(const PathKey &Key) const;

  /// Inverse: the concrete path for number \p Number in [0, NumPaths).
  std::optional<PathKey> decodePath(uint64_t Number) const;

  /// Decodes a chained k-path id into its constituent acyclic segments,
  /// oldest first (1 <= size() <= KEffective). Returns nullopt for ids
  /// outside [1, IdBound), ids with a zero or poisoned digit, and ids
  /// whose segments do not chain (a segment's terminating back edge
  /// must be the next segment's starting back edge; only the last
  /// segment may end at a Ret, and only a chain cut short by a Ret may
  /// have fewer than KEffective digits). Requires chained().
  std::optional<std::vector<PathKey>> decodeKPath(int64_t Id) const;

  bool isInstrumentedPath(const PathKey &Key) const {
    return Instrumented && pathNumberOf(Key).has_value();
  }

  /// Called by the driver once the final DAG exists.
  void buildEdgeIndex();

private:
  // DAG edge lookup by CFG identity.
  std::unordered_map<int, int> RealByCfg;
  std::map<int, int> LoopEntryByBack;
  std::map<int, int> LoopExitByBack;
  std::map<BlockId, int> FnExitByBlock;
  int FnEntryEdge = -1;
};

/// An instrumented module plus its plans.
struct InstrumentationResult {
  Module Instrumented;
  std::vector<FunctionPlan> Plans;
  ProfilerOptions Options;

  /// Fresh zeroed counter tables matching the plans.
  ProfileRuntime makeRuntime() const;

  /// Per-function block execution counts of Instrumented on the input
  /// where the clean module had edge profile \p CleanEP.
  std::vector<std::vector<int64_t>>
  blockFreqs(const EdgeProfile &CleanEP) const;
};

/// Validates \p O's numeric knobs. Returns an empty string when every
/// value is usable, otherwise a description of the first problem
/// (fractions outside [0, 1], zero iteration/threshold counts, a
/// non-expanding self-adjust factor).
std::string validateProfilerOptions(const ProfilerOptions &O);

/// Instruments a clone of \p M according to \p Opts, using \p EP (self
/// advice) for every profile-guided decision. \p M must outlive the
/// result. Invalid options are a fatal error (validateProfilerOptions).
///
/// Defined in pass/Instrument.cpp (the staged pipeline); callers link
/// ppp_pass.
InstrumentationResult instrumentModule(const Module &M, const EdgeProfile &EP,
                                       const ProfilerOptions &Opts);

/// Flattens one instrumented run into the mergeable wire form the
/// profile-collection server (src/serve) aggregates: per function, the
/// runtime table's (index, count) pairs, the lost/cold/invalid spill
/// counters, and (when \p EP is non-null) the edge profile's counts.
/// The result is canonical, so equal runs serialize byte-identically.
CountsMessage countsFromRun(const std::string &Benchmark,
                            const InstrumentationResult &IR,
                            const ProfileRuntime &RT,
                            const EdgeProfile *EP = nullptr);

/// As above, but serving every per-function analysis from \p FAM, which
/// must be bound to \p M. Rebinds the manager's advice to \p EP; with
/// one manager serving several profiler configurations over one module,
/// the shared analyses (CFG, loops, full-DAG facts) are computed once.
InstrumentationResult instrumentModule(const Module &M, const EdgeProfile &EP,
                                       const ProfilerOptions &Opts,
                                       FunctionAnalysisManager &FAM);

} // namespace ppp

#endif // PPP_PATHPROF_PROFILERS_H
