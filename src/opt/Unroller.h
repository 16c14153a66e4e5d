//===- opt/Unroller.h - Profile-guided loop unrolling ----------*- C++ -*-===//
///
/// \file
/// Inner-loop unrolling (Sec. 7.3): innermost natural loops with an
/// average trip count of at least 8 are unrolled by a factor of 4 (2 if
/// 4 would exceed the 256-instruction body cap; otherwise not at all).
///
/// Unrolling replicates the body, chaining each copy's back edge to the
/// next copy and the last back to the original header; every copy keeps
/// its exit conditions, so semantics are preserved for any trip count.
/// Ball-Larus paths then span several original iterations, reproducing
/// Table 1's jump in per-path branches and instructions.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_OPT_UNROLLER_H
#define PPP_OPT_UNROLLER_H

#include "ir/Module.h"
#include "profile/EdgeProfile.h"

#include <set>

namespace ppp {

struct UnrollerOptions {
  unsigned Factor = 4;
  double MinAvgTrip = 8.0;
  unsigned MaxBodyInstrs = 256; ///< Cap on the unrolled body size.
};

struct UnrollStats {
  unsigned LoopsUnrolled = 0;
  unsigned LoopsConsidered = 0;
  /// Table 1's "average unroll factor": per-loop factors (1 when not
  /// unrolled) weighted by dynamic iterations (back-edge frequency).
  double avgDynUnrollFactor() const {
    return WeightTotal == 0 ? 1.0
                            : WeightedFactor /
                                  static_cast<double>(WeightTotal);
  }

  double WeightedFactor = 0;
  int64_t WeightTotal = 0;

  /// Functions with at least one unrolled loop -- the functions a pass
  /// manager must invalidate.
  std::set<FuncId> ModifiedFunctions;
};

/// Unrolls qualifying loops of \p M in place. \p EP must profile \p M in
/// its pre-unrolling form (stale afterwards; re-profile).
UnrollStats runUnroller(Module &M, const EdgeProfile &EP,
                        const UnrollerOptions &Opts = UnrollerOptions());

} // namespace ppp

#endif // PPP_OPT_UNROLLER_H
