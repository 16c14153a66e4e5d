//===- workload/Generator.h - Synthetic workload generation ----*- C++ -*-===//
///
/// \file
/// Seeded structured-program generation, standing in for SPEC2000
/// (unavailable here). Programs are built as an AST of sequences,
/// skewed/balanced ifs, counted loops, multiway switches, straight-line
/// arithmetic, and calls over an acyclic call graph, then lowered to the
/// IR. Branch conditions hash an evolving per-function state register
/// that mixes loop counters and loads from the seeded global memory, so
/// control flow is data-dependent yet deterministic, with controllable
/// bias -- the properties path-profiling behaviour actually depends on.
///
/// Programs always terminate: every loop is counted (data-dependent
/// bounds are clamped to a range).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_WORKLOAD_GENERATOR_H
#define PPP_WORKLOAD_GENERATOR_H

#include "ir/Module.h"

#include <cstdint>
#include <string>

namespace ppp {

/// Knobs controlling the generated program's shape. Percentages are the
/// per-statement probabilities when the generator picks the next
/// statement kind; they need not sum to 100 (the remainder becomes
/// straight-line arithmetic).
struct WorkloadParams {
  uint64_t Seed = 1;
  std::string Name = "synthetic";

  unsigned NumFunctions = 8; ///< Callable functions besides main.
  /// The first functions are tiny leaf utilities (SPEC-style hot
  /// helpers): straight-line or one branch, no loops or calls. Call
  /// sites are biased toward them, which is what makes the paper's 5%
  /// code-bloat inlining budget able to inline ~45% of dynamic calls.
  unsigned LeafFunctions = 3;
  unsigned LeafCallBiasPct = 55; ///< Chance a call targets a leaf.
  unsigned TopStmtsMin = 4;      ///< Statements in a function body.
  unsigned TopStmtsMax = 10;
  unsigned MaxDepth = 3; ///< Maximum nesting of if/loop/switch.

  unsigned IfPct = 30;
  unsigned LoopPct = 15;
  unsigned SwitchPct = 5;
  unsigned CallPct = 15;

  unsigned OpsMin = 2; ///< Straight-line chunk length.
  unsigned OpsMax = 8;
  unsigned MemOpPct = 25; ///< Chance an op is a load/store.

  unsigned SkewedIfPct = 70; ///< Fraction of ifs that are biased.
  unsigned SkewMin = 88;     ///< Bias range for skewed ifs (percent).
  unsigned SkewMax = 98;

  unsigned TripMin = 2; ///< Counted-loop trip range (typical loops).
  unsigned TripMax = 12;
  unsigned HotLoopPct = 25; ///< Chance a loop is hot instead.
  unsigned HotTripMin = 40;
  unsigned HotTripMax = 200;

  unsigned SwitchArmsMin = 3;
  unsigned SwitchArmsMax = 6;

  /// Iterations of main's driver loop; the calibrator scales this to
  /// hit a dynamic-size target.
  uint64_t MainLoopTrips = 50;
};

/// Generates a complete, verified module. The same params (including
/// Seed) always produce the identical module; changing only
/// MainLoopTrips changes one loop bound and nothing else.
Module generateWorkload(const WorkloadParams &Params);

/// A phase-shifting program: two independently generated workloads
/// fused into one module, with a new main that alternates between
/// their drivers every PhaseLen iterations. The phases share global
/// memory but no functions, so the program's hot set migrates wholesale
/// at each switch -- the scenario where an adaptive optimizer's
/// per-phase specialization beats a static pipeline's one whole-run
/// compromise (bench/adaptive_steadystate).
struct PhasedWorkloadParams {
  std::string Name = "phased";
  WorkloadParams PhaseA; ///< MainLoopTrips = work per driver call.
  WorkloadParams PhaseB;
  uint64_t PhaseLen = 16; ///< Driver iterations per phase.
  uint64_t Trips = 64;    ///< Total driver iterations.
};

/// Generates the fused, verified phased module. PhaseB's functions are
/// appended after PhaseA's (call targets remapped); both old mains
/// become callable drivers under the new main.
Module generatePhasedWorkload(const PhasedWorkloadParams &Params);

/// A hand-built phased program whose *cost* is skewed away from its
/// *counts*, exactly rather than statistically -- where PathTime
/// hotness (adapt/AdaptiveController.h) should pick a different first
/// candidate than count hotness. Function 0, bushy, is a 12-arm switch
/// over fat unit-cost arms: large static size, short cheap paths, so
/// the count-based score (path delta x static size) loves it. Function
/// 1, dense, is six branch diamonds whose arms are packed with
/// DivU/RemU (8x unit cost): moderate static size, but ~20x a bushy
/// execution's cost. main runs 384 iterations, alternating a
/// bushy-heavy phase (8 bushy : 1 dense call per iteration) and a
/// dense-heavy one (1 : 4) every 128. Without \p Heavy (the module is
/// then named "uniform", else "skewed"), dense's divisions become
/// unit-cost ops: the control, same structure, counts agreeing with
/// cost.
Module generateCostSkewedWorkload(bool Heavy);

} // namespace ppp

#endif // PPP_WORKLOAD_GENERATOR_H
