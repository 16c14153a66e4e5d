//===- pathprof/Lowering.h - Materializing instrumentation -----*- C++ -*-===//
///
/// \file
/// Turns placed DAG-edge ops into profiling pseudo-instructions inside a
/// cloned function:
///
///  - FnEntry ops run once per invocation (at the top of the entry
///    block, or in a dedicated entry stub when the entry block has
///    predecessors).
///  - Real-edge ops go at the source (single successor), the target
///    (single predecessor), or a split block on the edge.
///  - FnExit ops go immediately before the Ret.
///  - Dummy-edge ops map back onto the broken back edge: the LoopExit
///    ops (ending the old path) run before the LoopEntry ops (starting
///    the new one), Fig. 1(g).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PATHPROF_LOWERING_H
#define PPP_PATHPROF_LOWERING_H

#include "analysis/BLDag.h"
#include "pathprof/Placement.h"
#include "profile/EdgeProfile.h"

#include <map>
#include <vector>

namespace ppp {

/// One profiling pseudo-instruction.
struct ProfOp {
  Opcode Op = Opcode::ProfSet;
  int64_t Imm = 0;
};

/// Instrumentation sites of one function, in CFG terms.
struct SiteOps {
  std::vector<ProfOp> EntryOps;                  ///< Once per invocation.
  std::map<int, std::vector<ProfOp>> EdgeOps;    ///< Per CFG edge id.
  std::map<BlockId, std::vector<ProfOp>> RetOps; ///< Before a block's Ret.

  uint64_t numOps() const;
};

/// Maps placed DAG ops to CFG sites.
///
/// With \p Chained (k-iteration profiling, k > 1), counts lower to the
/// chain opcodes keyed by the dummy edge they terminate on: LoopExit
/// counts become ProfChainIdx/ProfChainConst (fold-or-flush) and FnExit
/// counts become ProfChainRetIdx/ProfChainRetConst (always flush).
/// Placement must have pinned exit counts so every count still sits on
/// such a dummy edge. Checked counts never chain (plans demote first).
SiteOps finalizeSites(const BLDag &Dag, const PlacementResult &Placement,
                      bool Chained = false);

/// Rewrites \p F (a function inside \p M being instrumented) in place,
/// inserting the ops of \p Sites. \p OrigCfg must describe F's CFG
/// before any rewriting. Returns the number of instructions added.
uint64_t lowerInstrumentation(Function &F, const CfgView &OrigCfg,
                              const SiteOps &Sites);

/// Block execution counts of lowerInstrumentation(F, OrigCfg, Sites)'s
/// output on the input where the clean function had edge profile \p EP.
/// Blocks keep their ids and counts; a split block runs once per
/// traversal of its edge; an entry stub (block 0) once per invocation,
/// and the relocated entry body as often as clean block 0.
std::vector<int64_t> loweredBlockFreqs(const CfgView &OrigCfg,
                                       const SiteOps &Sites,
                                       const FunctionEdgeProfile &EP);

} // namespace ppp

#endif // PPP_PATHPROF_LOWERING_H
