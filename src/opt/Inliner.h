//===- opt/Inliner.h - Profile-guided inlining -----------------*- C++ -*-===//
///
/// \file
/// Edge-profile-guided inlining (Sec. 7.3), following Arnold et al.'s
/// cost/benefit scheme: call sites are prioritized by hotness divided by
/// callee size and inlined in decreasing priority until total program
/// size has grown by the code-bloat budget (default 5%). Callees larger
/// than 200 instructions and recursive calls are never inlined.
///
/// Its purpose here is exactly the paper's: lengthen and complicate
/// paths before path profiling, emulating a staged dynamic optimizer.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_OPT_INLINER_H
#define PPP_OPT_INLINER_H

#include "ir/Module.h"
#include "profile/EdgeProfile.h"

#include <set>

namespace ppp {

struct InlinerOptions {
  double CodeBloat = 0.05;      ///< Allowed program growth fraction.
  unsigned MaxCalleeSize = 200; ///< Instructions.
  unsigned MaxSites = ~0u;      ///< Cap on inlined sites (debug/tests).
};

struct InlineStats {
  unsigned SitesInlined = 0;
  unsigned SitesConsidered = 0;
  int64_t DynCallsInlined = 0; ///< Dynamic calls removed (profile).
  int64_t DynCallsTotal = 0;   ///< All dynamic calls (profile).
  /// Callers that received at least one inlined body -- the functions a
  /// pass manager must invalidate.
  std::set<FuncId> ModifiedFunctions;

  double dynFractionInlined() const {
    return DynCallsTotal == 0 ? 0.0
                              : static_cast<double>(DynCallsInlined) /
                                    static_cast<double>(DynCallsTotal);
  }
};

/// Inlines hot call sites in \p M in place. \p EP must profile \p M in
/// its pre-inlining form (it is stale afterwards; re-profile).
InlineStats runInliner(Module &M, const EdgeProfile &EP,
                       const InlinerOptions &Opts = InlinerOptions());

} // namespace ppp

#endif // PPP_OPT_INLINER_H
