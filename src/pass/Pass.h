//===- pass/Pass.h - Module pass interface and PreservedAnalyses -*- C++ -*-===//
///
/// \file
/// The pass protocol the pipeline layer is built on. A ModulePass runs
/// over one module with access to the FunctionAnalysisManager (cached
/// analyses, advice profile) and the PassContext (pipeline-wide inputs
/// and accumulating outputs), and reports which cached analyses its run
/// left valid via PreservedAnalyses:
///
///  - an analysis-only or report-only pass preserves everything;
///  - a transform that touched specific functions preserves everything
///    except those functions' analyses;
///  - a module-wide structural change preserves nothing.
///
/// The ModulePassManager applies the report to the analysis manager, so
/// passes never invalidate caches by hand and unchanged functions keep
/// their analyses across the whole pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PASS_PASS_H
#define PPP_PASS_PASS_H

#include "interp/CostModel.h"
#include "ir/Module.h"
#include "opt/Inliner.h"
#include "opt/Unroller.h"
#include "pathprof/Profilers.h"
#include "profile/Collectors.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>

namespace ppp {

class FunctionAnalysisManager;

/// What a pass run left valid in the analysis cache.
class PreservedAnalyses {
public:
  /// Nothing changed (analysis passes, report passes).
  static PreservedAnalyses all() { return PreservedAnalyses(true, {}); }

  /// Module-wide structural change: drop every cached analysis.
  static PreservedAnalyses none() { return PreservedAnalyses(false, {}); }

  /// A transform modified exactly \p Modified; everything else stands.
  static PreservedAnalyses
  allExceptFunctions(std::set<FuncId> Modified) {
    return PreservedAnalyses(false, std::move(Modified));
  }

  bool preservedAll() const { return All; }
  /// Meaningful when !preservedAll(): empty set means "none preserved".
  const std::set<FuncId> &modifiedFunctions() const { return Modified; }
  /// True for the none() report (invalidate the whole module).
  bool preservedNone() const { return !All && Modified.empty(); }

private:
  PreservedAnalyses(bool All, std::set<FuncId> Modified)
      : All(All), Modified(std::move(Modified)) {}

  bool All;
  std::set<FuncId> Modified;
};

/// Pipeline-wide inputs and accumulating outputs, owned by the driver
/// and threaded through every pass. Each profile pass's clean run (the
/// edge profile is the advice; the run's cost and instruction counts
/// are under the cost model the pass used) lives in a deque so its
/// address stays stable: the analysis manager keeps a pointer to the
/// newest run's edge profile as its advice.
struct PassContext {
  // Inputs.
  CostModel StdCosts;         ///< Intermediate "profile" runs.
  CostModel BenchCosts;       ///< Final "profile<bench>" run.
  bool AllowInlining = true;  ///< false: count-only inliner run.
  InlinerOptions InlineOpts;
  UnrollerOptions UnrollOpts;

  // Outputs.
  std::deque<CleanProfile> Profiles; ///< One per profile pass, in order.
  InlineStats Inline;
  UnrollStats Unroll;
  std::unique_ptr<InstrumentationResult> Instr; ///< From an instrument pass.

  /// First error; the pass manager stops the pipeline when set.
  std::string Error;

  /// Functions a gating pass decided not to process (reported per pass
  /// in the PPP_PASS_STATS table).
  uint64_t FunctionsSkipped = 0;
};

/// A unit of pipeline work over one module.
class ModulePass {
public:
  virtual ~ModulePass() = default;

  /// The pass's pipeline-spec token (e.g. "inline", "instrument<ppp>").
  /// printPipeline() joins these, so the name must re-parse to an
  /// equivalent pass; it also keys the PPP_PASS_STATS table.
  virtual std::string name() const = 0;

  /// Runs the pass. \p M is the module being transformed; \p FAM serves
  /// cached analyses (usually over \p M -- the instrumentation stages
  /// are the exception, analyzing the advice module while lowering into
  /// a clone). On failure set Ctx.Error and return all().
  virtual PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                                PassContext &Ctx) = 0;
};

} // namespace ppp

#endif // PPP_PASS_PASS_H
