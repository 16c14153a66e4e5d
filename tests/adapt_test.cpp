//===- tests/adapt_test.cpp - Adaptive controller tests -----------------------===//

#include "adapt/AdaptiveSession.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "profile/Collectors.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"
#include "workload/Generator.h"

#include "gtest/gtest.h"

using namespace ppp;

namespace {

/// A module with an obvious hot/cold split: main's loop calls hot(i)
/// every iteration and cold(i) once per 64 iterations, so per-epoch
/// path deltas separate the two by more than an order of magnitude.
struct HotCold {
  Module M;
  FuncId Hot = -1, Cold = -1, Main = -1;
};

HotCold buildHotColdModule() {
  HotCold T;
  IRBuilder B(T.M);

  // hot(x): two warm paths plus enough arithmetic to carry weight in
  // the controller's delta-times-size score.
  T.Hot = B.beginFunction("hot", 1);
  {
    RegId X = 0;
    RegId Bit = B.emitBinary(Opcode::And, X, B.emitConst(1));
    RegId Res = B.emitConst(0);
    BlockId OddB = B.newBlock(), EvenB = B.newBlock(), Exit = B.newBlock();
    B.emitCondBr(Bit, OddB, EvenB);
    B.setInsertPoint(OddB);
    B.emitMulImm(X, 3, Res);
    B.emitAddImm(Res, 17, Res);
    B.emitBr(Exit);
    B.setInsertPoint(EvenB);
    B.emitAddImm(X, 5, Res);
    B.emitMulImm(Res, 2, Res);
    B.emitBr(Exit);
    B.setInsertPoint(Exit);
    B.emitRet(Res);
  }
  B.endFunction();

  T.Cold = B.beginFunction("cold", 1);
  {
    RegId X = 0;
    RegId Bit = B.emitBinary(Opcode::And, X, B.emitConst(2));
    RegId Res = B.emitConst(0);
    BlockId HiB = B.newBlock(), LoB = B.newBlock(), Exit = B.newBlock();
    B.emitCondBr(Bit, HiB, LoB);
    B.setInsertPoint(HiB);
    B.emitAddImm(X, 1, Res);
    B.emitBr(Exit);
    B.setInsertPoint(LoB);
    B.emitMulImm(X, 7, Res);
    B.emitBr(Exit);
    B.setInsertPoint(Exit);
    B.emitRet(Res);
  }
  B.endFunction();

  T.Main = B.beginFunction("main", 0);
  {
    RegId I = B.emitConst(0);
    RegId State = B.emitConst(0x1234);
    RegId Limit = B.emitConst(256);
    RegId Mask = B.emitConst(63);
    RegId Zero = B.emitConst(0);
    RegId Addr = B.emitConst(1);
    BlockId Header = B.newBlock(), ColdB = B.newBlock(), Latch = B.newBlock(),
            Exit = B.newBlock();
    B.emitBr(Header);
    B.setInsertPoint(Header);
    RegId H = B.emitCall(T.Hot, {I});
    B.emitBinary(Opcode::Xor, State, H, State);
    RegId Rem = B.emitBinary(Opcode::And, I, Mask);
    RegId IsCold = B.emitBinary(Opcode::CmpEq, Rem, Zero);
    B.emitCondBr(IsCold, ColdB, Latch);
    B.setInsertPoint(ColdB);
    RegId Cr = B.emitCall(T.Cold, {I});
    B.emitBinary(Opcode::Add, State, Cr, State);
    B.emitBr(Latch);
    B.setInsertPoint(Latch);
    B.emitStore(Addr, State);
    B.emitAddImm(I, 1, I);
    RegId Cmp = B.emitBinary(Opcode::CmpLt, I, Limit);
    B.emitCondBr(Cmp, Header, Exit);
    B.setInsertPoint(Exit);
    B.emitRet(State);
  }
  B.endFunction();
  T.M.MainId = T.Main;
  T.M.MemWords = 16;
  EXPECT_EQ(verifyModule(T.M), "");
  return T;
}

/// Aggressive enough that a ~260-call run yields many epochs, with the
/// delta floor sitting between cold's per-epoch count (<1) and the hot
/// set's (~15).
adapt::AdaptiveOptions testOptions() {
  adapt::AdaptiveOptions AO;
  AO.EpochCalls = 16;
  AO.MinPathDelta = 8;
  AO.EvalEpochs = 2;
  AO.RevertThresholdPct = 100.0; // Specialized code never doubles cost.
  AO.BackoffIdleEpochs = 0;      // Keep the cadence fixed for the test.
  return AO;
}

TEST(Adaptive, PresetKeepsCountersLive) {
  ProfilerOptions O = ProfilerOptions::adaptive();
  EXPECT_EQ(O.Name, "adaptive");
  EXPECT_FALSE(O.SkipObviousRoutines);
  EXPECT_FALSE(O.LowCoverageGate);
  // Still PPP underneath: the overhead machinery the controller relies
  // on for cheap always-on counters stays enabled.
  EXPECT_TRUE(O.SmartNumbering);
}

TEST(Adaptive, PicksHotFunctionLeavesColdAlone) {
  HotCold T = buildHotColdModule();
  InterpOptions IO;
  EdgeProfile Advice = profileClean(T.M, IO).EP;

  adapt::AdaptiveOptions AO = testOptions();
  // Disable inlining so main's specialized version cannot absorb the
  // hot call sites; this test is about *which* functions get picked.
  AO.InlineOpts.MaxCalleeSize = 1;
  std::unique_ptr<adapt::AdaptiveSession> S =
      adapt::AdaptiveSession::create(T.M, Advice, IO, AO);

  Interpreter CleanI(T.M, IO);
  for (int R = 0; R < 3; ++R) {
    RunResult Clean = CleanI.run();
    RunResult A = S->run();
    EXPECT_FALSE(A.FuelExhausted);
    EXPECT_EQ(A.ReturnValue, Clean.ReturnValue);
    EXPECT_EQ(A.MemChecksum, Clean.MemChecksum);
  }

  const adapt::AdaptStats &St = S->controller().stats();
  EXPECT_GT(St.Epochs, 10u);
  EXPECT_GE(St.VersionsInstalled, 1u);
  EXPECT_GE(St.VersionsCompiled, St.VersionsInstalled);

  const VersionTable &VT = S->interp().versions();
  EXPECT_GE(VT.currentVersion(T.Hot), 1);
  // cold never clears MinPathDelta in any 16-call epoch.
  EXPECT_EQ(VT.currentVersion(T.Cold), 0);
  EXPECT_EQ(VT.installedVersions(T.Cold), 0u);
}

TEST(Adaptive, AdviceIsScopedToOneFunction) {
  HotCold T = buildHotColdModule();
  InterpOptions IO;
  EdgeProfile Advice = profileClean(T.M, IO).EP;
  std::unique_ptr<adapt::AdaptiveSession> S =
      adapt::AdaptiveSession::create(T.M, Advice, IO, testOptions());
  S->run();

  EdgeProfile A = S->controller().adviceFor(T.Hot);
  ASSERT_EQ(A.Funcs.size(), static_cast<size_t>(T.M.numFunctions()));
  int64_t HotFlow = 0;
  for (int64_t F : A.Funcs[static_cast<size_t>(T.Hot)].EdgeFreq)
    HotFlow += F;
  EXPECT_GT(HotFlow, 0);
  for (unsigned F = 0; F < T.M.numFunctions(); ++F) {
    if (static_cast<FuncId>(F) == T.Hot)
      continue;
    for (int64_t Freq : A.Funcs[F].EdgeFreq)
      EXPECT_EQ(Freq, 0) << "advice for hot leaked into function " << F;
  }
}

TEST(Adaptive, FlushedTableMetricsSumOverSessions) {
  HotCold T = buildHotColdModule();
  Module Skewed = generateCostSkewedWorkload(/*Heavy=*/true);
  InterpOptions IO;
  std::unique_ptr<adapt::AdaptiveSession> Small =
      adapt::AdaptiveSession::create(T.M, profileClean(T.M, IO).EP, IO,
                                     testOptions());
  std::unique_ptr<adapt::AdaptiveSession> Large =
      adapt::AdaptiveSession::create(Skewed, profileClean(Skewed, IO).EP,
                                     IO, testOptions());
  for (int R = 0; R < 3; ++R) {
    Small->run();
    Large->run();
  }
  const VersionTable &VS = Small->interp().versions();
  const VersionTable &VL = Large->interp().versions();
  ASSERT_NE(VS.numFunctions(), VL.numFunctions());
  uint64_t LiveSum = 0;
  for (const VersionTable *VT : {&VS, &VL})
    for (size_t F = 0; F < VT->numFunctions(); ++F)
      LiveSum += VT->currentVersion(static_cast<FuncId>(F)) > 0;

  // The session with the worse swap flushes first, so a last-writer-wins
  // maximum would report the other one's.
  const adapt::AdaptiveController *First = &Small->controller();
  const adapt::AdaptiveController *Second = &Large->controller();
  if (First->stats().MaxSwapNanos < Second->stats().MaxSwapNanos)
    std::swap(First, Second);
  obs::Registry::instance().resetForTesting();
  First->flushMetrics();
  Second->flushMetrics();

  obs::MetricsSnapshot Snap = obs::snapshot();
  EXPECT_EQ(Snap.counter("adapt.table.functions"),
            VS.numFunctions() + VL.numFunctions());
  EXPECT_EQ(Snap.counter("adapt.table.decoded"),
            VS.decodedFunctions() + VL.decodedFunctions());
  EXPECT_EQ(Snap.counter("adapt.table.live_versions"), LiveSum);
  EXPECT_EQ(Snap.gauge("adapt.swap.ns_max"),
            static_cast<double>(First->stats().MaxSwapNanos));
}

/// Substitutes deliberately mispriced versions (same clean code, every
/// opcode hundreds of times more expensive) so each install regresses
/// the epoch cost and must take the revert path.
class BadVersionController : public adapt::AdaptiveController {
public:
  BadVersionController(const Module &Clean, const InstrumentationResult &IR,
                       ProfileRuntime &RT, Interpreter &I,
                       const adapt::AdaptiveOptions &O)
      : adapt::AdaptiveController(Clean, IR, RT, I, O), CleanM(&Clean) {}

protected:
  std::shared_ptr<const DecodedFunction>
  buildVersion(FuncId F, const EdgeProfile &) override {
    CostModel Expensive;
    Expensive.Simple = 500;
    Expensive.Mul = 1500;
    Expensive.Div = 4000;
    Expensive.Mem = 1000;
    Expensive.CallOverhead = 2500;
    Expensive.RetOverhead = 1000;
    Expensive.Branch = 500;
    Expensive.Multiway = 1000;
    return std::make_shared<const DecodedFunction>(
        decodeFunction(CleanM->function(F), Expensive, /*HashedTable=*/false));
  }

private:
  const Module *CleanM;
};

TEST(Adaptive, RevertsRegressingVersionAndNeverRetries) {
  HotCold T = buildHotColdModule();
  InterpOptions IO;
  EdgeProfile Advice = profileClean(T.M, IO).EP;

  // The session wires its own controller, so stand the stack up by
  // hand around the bad-version subclass (buildVersion is virtual for
  // exactly this).
  InstrumentationResult IR =
      instrumentModule(T.M, Advice, ProfilerOptions::adaptive());
  ProfileRuntime RT = IR.makeRuntime();
  Interpreter I(IR.Instrumented, IO);
  I.setProfileRuntime(&RT);
  adapt::AdaptiveOptions AO = testOptions();
  AO.RevertThresholdPct = 10.0;
  BadVersionController C(T.M, IR, RT, I, AO);

  Interpreter CleanI(T.M, IO);
  for (int R = 0; R < 6; ++R) {
    RunResult Clean = CleanI.run();
    C.noteRunBoundary();
    RunResult A = I.run();
    // Mispricing inflates cost, never semantics.
    EXPECT_EQ(A.ReturnValue, Clean.ReturnValue);
    EXPECT_EQ(A.MemChecksum, Clean.MemChecksum);
  }

  const adapt::AdaptStats &St = C.stats();
  EXPECT_GE(St.VersionsInstalled, 1u);
  EXPECT_GE(St.VersionsReverted, 1u);
  EXPECT_LE(St.VersionsReverted + St.VersionsKept, St.VersionsInstalled);

  // The hot leaf's bad version goes live at its next call, so its
  // evaluation window always sees the regression: reverted, back on
  // the base decode, and blocked from ever being retried.
  const VersionTable &VT = I.versions();
  EXPECT_GE(VT.installedVersions(T.Hot), 1u);
  EXPECT_EQ(VT.currentVersion(T.Hot), 0);
  for (unsigned F = 0; F < T.M.numFunctions(); ++F)
    EXPECT_LE(VT.installedVersions(static_cast<FuncId>(F)), 1u)
        << "reverted function " << F << " was retried";
}

/// What one adaptive session on a cost-skewed subject picked first, the
/// share of the timed run's attributed cost that function carries, and
/// its steady modelled cost: bench/adaptive_steadystate's cadence for
/// these subjects, 32 runs, the last 16 steady.
struct FirstPick {
  FuncId F = -1;
  double Cover = 0;
  uint64_t SteadyCost = 0;
};

FirstPick runCostSkewed(const Module &M, const EdgeProfile &Advice,
                        const trace::PathTimingProfile &Timing,
                        bool PathTime) {
  adapt::AdaptiveOptions AO;
  AO.EpochCalls = 512;
  AO.MinPathDelta = 4;
  AO.EvalEpochs = 2;
  AO.RevertThresholdPct = 60.0;
  if (PathTime)
    AO.Timing = &Timing;
  InterpOptions IO;
  std::unique_ptr<adapt::AdaptiveSession> S =
      adapt::AdaptiveSession::create(M, Advice, IO, AO);
  RunResult Clean = Interpreter(M, IO).run();
  FirstPick Out;
  for (int R = 0; R < 32; ++R) {
    RunResult A = S->run();
    EXPECT_EQ(A.ReturnValue, Clean.ReturnValue);
    EXPECT_EQ(A.MemChecksum, Clean.MemChecksum);
    if (R >= 16)
      Out.SteadyCost += A.Cost;
  }
  Out.F = S->controller().stats().FirstInstall;
  auto It = Timing.functions().find(Out.F);
  if (It != Timing.functions().end())
    Out.Cover = static_cast<double>(It->second.TotalCost) /
                static_cast<double>(Timing.attributedCost());
  return Out;
}

TEST(Adaptive, PathTimeHotnessFollowsCostNotCounts) {
  for (bool Heavy : {true, false}) {
    SCOPED_TRACE(Heavy ? "skewed" : "uniform");
    Module M = generateCostSkewedWorkload(Heavy);
    ASSERT_TRUE(verifyModule(M).empty());
    InterpOptions IO;
    EdgeProfile Advice = profileClean(M, IO).EP;
    InstrumentationResult IR =
        instrumentModule(M, Advice, ProfilerOptions::traceTimed());
    ProfileRuntime RT = IR.makeRuntime();
    trace::PathTimingProfile Timing;
    RunResult Res;
    std::string Err;
    ASSERT_TRUE(trace::collect(M, IR, IO, RT, Res, Err, &Timing)) << Err;
    ASSERT_GT(Timing.attributedCost(), 0u);

    FirstPick Count = runCostSkewed(M, Advice, Timing, false);
    FirstPick Time = runCostSkewed(M, Advice, Timing, true);
    if (Heavy) {
      // Counts point at bushy (function 0), cost at dense (function 1);
      // following cost covers more of it and never costs more.
      EXPECT_EQ(Count.F, 0);
      EXPECT_EQ(Time.F, 1);
      EXPECT_GE(Time.Cover, Count.Cover);
      EXPECT_LE(Time.SteadyCost, Count.SteadyCost);
    } else {
      // Counts agree with cost: both rankings pick the same function.
      EXPECT_GE(Count.F, 0);
      EXPECT_EQ(Count.F, Time.F);
    }
  }
}

} // namespace
