//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
///
/// \file
/// Helpers shared across the test suite: run a module while collecting
/// the edge profile and oracle path profile, run an instrumented clone,
/// and check the core measurement invariants.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_TESTS_TESTUTIL_H
#define PPP_TESTS_TESTUTIL_H

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "pathprof/EstimatedProfile.h"
#include "pathprof/Profilers.h"
#include "profile/Collectors.h"
#include "workload/Generator.h"

#include "gtest/gtest.h"

namespace ppp {
namespace testutil {

/// Result of a clean profiling run.
using ProfiledRun = CleanProfile;

/// profileClean() under \p Fuel, expecting the module to terminate.
inline ProfiledRun profileModule(const Module &M,
                                 uint64_t Fuel = 200'000'000) {
  InterpOptions IO;
  IO.Fuel = Fuel;
  ProfiledRun Out = profileClean(M, IO);
  EXPECT_FALSE(Out.Res.FuelExhausted) << "module did not terminate";
  return Out;
}

/// Result of running an instrumented module.
struct InstrumentedRun {
  ProfileRuntime RT;
  RunResult Res;

  explicit InstrumentedRun(unsigned NumFunctions) : RT(NumFunctions) {}
};

/// Runs the instrumented clone with fresh tables.
inline InstrumentedRun runInstrumented(const InstrumentationResult &IR,
                                       uint64_t Fuel = 400'000'000) {
  InstrumentedRun Out(IR.Instrumented.numFunctions());
  Out.RT = IR.makeRuntime();
  InterpOptions IO;
  IO.Fuel = Fuel;
  Interpreter I(IR.Instrumented, IO);
  I.setProfileRuntime(&Out.RT);
  Out.Res = I.run();
  EXPECT_FALSE(Out.Res.FuelExhausted) << "instrumented module hung";
  return Out;
}

/// Core measurement invariants (see Placement/Profilers):
///  - instrumented runs preserve program semantics;
///  - no counter index ever falls outside the sized tables;
///  - every instrumented path's measured count is at least its actual
///    frequency (cold executions may overcount but never undercount),
///    with exact equality when \p ExpectExact (array tables, PP).
inline void checkMeasurementInvariants(const Module &M,
                                       const InstrumentationResult &IR,
                                       const InstrumentedRun &Run,
                                       const ProfiledRun &Clean,
                                       bool ExpectExact) {
  EXPECT_EQ(Clean.Res.ReturnValue, Run.Res.ReturnValue);
  EXPECT_EQ(Clean.Res.MemChecksum, Run.Res.MemChecksum);

  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FuncId F = static_cast<FuncId>(FI);
    const FunctionPlan &Plan = IR.Plans[FI];
    const PathTable &T = Run.RT.table(F);
    EXPECT_EQ(T.invalidCount(), 0u)
        << "function " << FI << ": out-of-range counter index";
    if (!Plan.Instrumented)
      continue;
    bool Hashed = Plan.TableKind == PathTable::Kind::Hash;
    for (const PathRecord &Rec : Clean.Oracle.Funcs[FI].Paths) {
      std::optional<uint64_t> Num = Plan.pathNumberOf(Rec.Key);
      if (!Num)
        continue; // Not an instrumented path.
      uint64_t Measured = T.countFor(static_cast<int64_t>(*Num));
      if (Hashed)
        continue; // Lost paths make bounds unreliable.
      EXPECT_GE(Measured, Rec.Freq)
          << "function " << FI << " path " << *Num << " undercounted";
      if (ExpectExact) {
        EXPECT_EQ(Measured, Rec.Freq)
            << "function " << FI << " path " << *Num << " miscounted";
      }
    }
  }
}

/// A small deterministic workload for property tests.
inline Module smallWorkload(uint64_t Seed, unsigned MainTrips = 40) {
  WorkloadParams P;
  P.Seed = Seed;
  P.Name = "t" + std::to_string(Seed);
  P.NumFunctions = 4;
  P.TopStmtsMin = 3;
  P.TopStmtsMax = 7;
  P.MaxDepth = 3;
  P.IfPct = 32;
  P.LoopPct = 16;
  P.SwitchPct = 8;
  P.CallPct = 12;
  P.SkewedIfPct = 60;
  P.HotLoopPct = 10;
  P.HotTripMin = 20;
  P.HotTripMax = 60;
  P.MainLoopTrips = MainTrips;
  Module M = generateWorkload(P);
  EXPECT_EQ(verifyModule(M), "");
  return M;
}

/// A loop-heavy variant (FP-flavoured) for the same property tests.
inline Module loopyWorkload(uint64_t Seed, unsigned MainTrips = 25) {
  WorkloadParams P;
  P.Seed = Seed;
  P.Name = "loopy" + std::to_string(Seed);
  P.NumFunctions = 4;
  P.TopStmtsMin = 2;
  P.TopStmtsMax = 5;
  P.MaxDepth = 3;
  P.IfPct = 10;
  P.LoopPct = 34;
  P.SwitchPct = 0;
  P.CallPct = 10;
  P.OpsMin = 4;
  P.OpsMax = 10;
  P.SkewedIfPct = 90;
  P.HotLoopPct = 40;
  P.HotTripMin = 20;
  P.HotTripMax = 80;
  P.MainLoopTrips = MainTrips;
  Module M = generateWorkload(P);
  EXPECT_EQ(verifyModule(M), "");
  return M;
}

} // namespace testutil
} // namespace ppp

#endif // PPP_TESTS_TESTUTIL_H
