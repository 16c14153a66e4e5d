//===- tests/interp_test.cpp - Interpreter semantics tests --------------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "trace/TraceRecorder.h"

#include "gtest/gtest.h"

using namespace ppp;

namespace {

/// Runs a one-function module returning the value of the expression
/// built by \p Build.
template <typename BuildFn> int64_t evalMain(BuildFn Build) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Result = Build(B);
  B.emitRet(Result);
  B.endFunction();
  EXPECT_EQ(verifyModule(M), "");
  Interpreter I(M);
  RunResult R = I.run();
  EXPECT_FALSE(R.FuelExhausted);
  return R.ReturnValue;
}

RegId binOp(IRBuilder &B, Opcode Op, int64_t L, int64_t R) {
  return B.emitBinary(Op, B.emitConst(L), B.emitConst(R));
}

TEST(Interp, Arithmetic) {
  EXPECT_EQ(evalMain([](IRBuilder &B) { return binOp(B, Opcode::Add, 2, 3); }),
            5);
  EXPECT_EQ(evalMain([](IRBuilder &B) { return binOp(B, Opcode::Sub, 2, 3); }),
            -1);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Mul, -4, 3); }),
      -12);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::DivU, 17, 5); }),
      3);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::RemU, 17, 5); }),
      2);
}

TEST(Interp, DivisionByZeroIsZero) {
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::DivU, 17, 0); }),
      0);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::RemU, 17, 0); }),
      0);
}

TEST(Interp, Bitwise) {
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::And, 0b1100, 0b1010); }),
      0b1000);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Or, 0b1100, 0b1010); }),
      0b1110);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Xor, 0b1100, 0b1010); }),
      0b0110);
}

TEST(Interp, ShiftsMaskAmountTo63) {
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Shl, 1, 68); }),
      16); // 68 & 63 == 4.
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Shr, 256, 68); }),
      16);
}

TEST(Interp, ShrIsLogical) {
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::Shr, -1, 63); }),
      1);
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::CmpLt, -5, 3); }),
      1);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::CmpLt, 3, -5); }),
      0);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::CmpLe, 3, 3); }),
      1);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::CmpEq, 3, 3); }),
      1);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return binOp(B, Opcode::CmpNe, 3, 3); }),
      0);
}

TEST(Interp, ImmediateForms) {
  EXPECT_EQ(evalMain([](IRBuilder &B) {
              return B.emitAddImm(B.emitConst(40), 2);
            }),
            42);
  EXPECT_EQ(evalMain([](IRBuilder &B) {
              return B.emitMulImm(B.emitConst(6), 7);
            }),
            42);
  EXPECT_EQ(
      evalMain([](IRBuilder &B) { return B.emitMov(B.emitConst(9)); }), 9);
}

TEST(Interp, WrappingArithmetic) {
  EXPECT_EQ(evalMain([](IRBuilder &B) {
              return B.emitAddImm(B.emitConst(INT64_MAX), 1);
            }),
            INT64_MIN);
}

TEST(Interp, StoreLoadRoundTrip) {
  EXPECT_EQ(evalMain([](IRBuilder &B) {
              RegId Addr = B.emitConst(5);
              RegId Val = B.emitConst(1234);
              B.emitStore(Addr, Val);
              return B.emitLoad(Addr);
            }),
            1234);
}

TEST(Interp, MemoryAddressWraps) {
  // MemWords defaults to 1024; address 1024+5 aliases address 5.
  EXPECT_EQ(evalMain([](IRBuilder &B) {
              RegId A1 = B.emitConst(5);
              RegId A2 = B.emitConst(1024 + 5);
              B.emitStore(A1, B.emitConst(77));
              return B.emitLoad(A2);
            }),
            77);
}

TEST(Interp, NonPow2MemWordsRoundsUpInsteadOfAliasing) {
  // The verifier rejects non-power-of-two MemWords, but execution of an
  // unverified module must still be well-defined: the interpreter
  // rounds the address space up to the next power of two (here 1000 ->
  // 1024), so distinct addresses below the rounded size never alias.
  Module M;
  M.MemWords = 1000;
  EXPECT_EQ(M.addrSpaceWords(), 1024u);
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId A1 = B.emitConst(999);
  RegId A2 = B.emitConst(1015); // Within the rounded space; was aliased
                                // by the old mask (1015 & 999 != 1015).
  B.emitStore(A1, B.emitConst(11));
  B.emitStore(A2, B.emitConst(22));
  RegId V1 = B.emitLoad(A1);
  RegId V2 = B.emitLoad(A2);
  B.emitRet(B.emitBinary(Opcode::Sub, V1, V2));
  B.endFunction();
  EXPECT_EQ(Interpreter(M).run().ReturnValue, 11 - 22);
  // Addresses still wrap at the rounded power of two.
  Module M2;
  M2.MemWords = 1000;
  IRBuilder B2(M2);
  B2.beginFunction("main", 0);
  B2.emitStore(B2.emitConst(5), B2.emitConst(77));
  B2.emitRet(B2.emitLoad(B2.emitConst(1024 + 5)));
  B2.endFunction();
  EXPECT_EQ(Interpreter(M2).run().ReturnValue, 77);
}

TEST(Interp, MemorySeedDeterminism) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId V = B.emitLoad(B.emitConst(3));
  B.emitRet(V);
  B.endFunction();
  InterpOptions O1;
  O1.MemSeed = 1;
  InterpOptions O2;
  O2.MemSeed = 2;
  int64_t A = Interpreter(M, O1).run().ReturnValue;
  int64_t A2 = Interpreter(M, O1).run().ReturnValue;
  int64_t C = Interpreter(M, O2).run().ReturnValue;
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, C);
}

TEST(Interp, CallPassesArgsAndReturns) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("sub", 2);
  RegId D = B.emitBinary(Opcode::Sub, 0, 1);
  B.emitRet(D);
  B.endFunction();
  FuncId MainId = B.beginFunction("main", 0);
  RegId X = B.emitConst(10);
  RegId Y = B.emitConst(4);
  RegId R = B.emitCall(0, {X, Y});
  B.emitRet(R);
  B.endFunction();
  M.MainId = MainId;
  ASSERT_EQ(verifyModule(M), "");
  EXPECT_EQ(Interpreter(M).run().ReturnValue, 6);
}

TEST(Interp, NestedCallsKeepFramesSeparate) {
  Module M;
  IRBuilder B(M);
  // f0(x) = x + 1.
  B.beginFunction("inc", 1);
  B.emitRet(B.emitAddImm(0, 1));
  B.endFunction();
  // f1(x) = inc(x) * 10 + x  (x must survive the call).
  B.beginFunction("mid", 1);
  RegId Inc = B.emitCall(0, {0});
  RegId Ten = B.emitMulImm(Inc, 10);
  B.emitRet(B.emitBinary(Opcode::Add, Ten, 0));
  B.endFunction();
  FuncId MainId = B.beginFunction("main", 0);
  B.emitRet(B.emitCall(1, {B.emitConst(7)}));
  B.endFunction();
  M.MainId = MainId;
  ASSERT_EQ(verifyModule(M), "");
  EXPECT_EQ(Interpreter(M).run().ReturnValue, 87);
}

TEST(Interp, SwitchSelectsByModulo) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Sel = B.emitConst(5); // 5 % 3 == 2 -> third arm.
  BlockId A0 = B.newBlock(), A1 = B.newBlock(), A2 = B.newBlock();
  B.emitSwitch(Sel, {A0, A1, A2});
  B.setInsertPoint(A0);
  B.emitRet(B.emitConst(100));
  B.setInsertPoint(A1);
  B.emitRet(B.emitConst(200));
  B.setInsertPoint(A2);
  B.emitRet(B.emitConst(300));
  B.endFunction();
  ASSERT_EQ(verifyModule(M), "");
  EXPECT_EQ(Interpreter(M).run().ReturnValue, 300);
}

TEST(Interp, LoopComputesSum) {
  // sum 1..10 via a counted loop.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId I = B.emitConst(0);
  RegId Sum = B.emitConst(0);
  RegId Limit = B.emitConst(10);
  BlockId H = B.newBlock(), E = B.newBlock();
  B.emitBr(H);
  B.setInsertPoint(H);
  B.emitAddImm(I, 1, I);
  B.emitBinary(Opcode::Add, Sum, I, Sum);
  RegId C = B.emitBinary(Opcode::CmpLt, I, Limit);
  B.emitCondBr(C, H, E);
  B.setInsertPoint(E);
  B.emitRet(Sum);
  B.endFunction();
  ASSERT_EQ(verifyModule(M), "");
  EXPECT_EQ(Interpreter(M).run().ReturnValue, 55);
}

TEST(Interp, FuelExhaustionOnInfiniteLoop) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Z = B.emitConst(0);
  BlockId H = B.newBlock();
  B.emitBr(H);
  B.setInsertPoint(H);
  B.emitBr(H);
  B.endFunction();
  (void)Z;
  InterpOptions O;
  O.Fuel = 1000;
  RunResult R = Interpreter(M, O).run();
  EXPECT_TRUE(R.FuelExhausted);
  EXPECT_EQ(R.DynInstrs, 1000u);
}

TEST(Interp, CostModelCharges) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId X = B.emitConst(3); // Simple: 1
  RegId Y = B.emitBinary(Opcode::Mul, X, X); // Mul: 3
  B.emitRet(Y); // Ret: 2
  B.endFunction();
  RunResult R = Interpreter(M).run();
  CostModel CM;
  EXPECT_EQ(R.Cost, CM.Simple + CM.Mul + CM.RetOverhead);
  EXPECT_EQ(R.DynInstrs, 3u);
}

TEST(Interp, ObserverSeesEdgesAndFunctions) {
  struct Counter : ExecObserver {
    int Enters = 0, Exits = 0, Edges = 0;
    void onFunctionEnter(FuncId) override { ++Enters; }
    void onFunctionExit(FuncId) override { ++Exits; }
    void onEdge(FuncId, BlockId, unsigned) override { ++Edges; }
  };
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId C = B.emitConst(1);
  BlockId T = B.newBlock(), F = B.newBlock();
  B.emitCondBr(C, T, F);
  B.setInsertPoint(T);
  B.emitRet(C);
  B.setInsertPoint(F);
  B.emitRet(C);
  B.endFunction();
  Counter Obs;
  Interpreter I(M);
  I.addObserver(&Obs);
  I.run();
  EXPECT_EQ(Obs.Enters, 1);
  EXPECT_EQ(Obs.Exits, 1);
  EXPECT_EQ(Obs.Edges, 1);
}

TEST(Interp, ProfOpsCountIntoRuntime) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Z = B.emitConst(0);
  // Hand-placed instrumentation: r=2; r+=3; count[r+1]++ -> index 6.
  Instr S;
  S.Op = Opcode::ProfSet;
  S.Imm = 2;
  Instr A;
  A.Op = Opcode::ProfAdd;
  A.Imm = 3;
  Instr C;
  C.Op = Opcode::ProfCountIdx;
  C.Imm = 1;
  Instr K;
  K.Op = Opcode::ProfCountConst;
  K.Imm = 0;
  auto &Ins = M.function(0).Blocks[0].Instrs;
  Ins.push_back(S);
  Ins.push_back(A);
  Ins.push_back(C);
  Ins.push_back(K);
  B.emitRet(Z);
  B.endFunction();
  ProfileRuntime RT(1);
  RT.setTable(0, PathTable::makeArray(8));
  Interpreter I(M);
  I.setProfileRuntime(&RT);
  I.run();
  EXPECT_EQ(RT.table(0).countFor(6), 1u);
  EXPECT_EQ(RT.table(0).countFor(0), 1u);
  EXPECT_EQ(RT.table(0).invalidCount(), 0u);
}

TEST(Interp, ChecksumDetectsMemoryDifferences) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Addr = B.emitConst(1);
  RegId V = B.emitConst(42);
  B.emitStore(Addr, V);
  B.emitRet(V);
  B.endFunction();
  Module M2 = M;
  M2.function(0).Blocks[0].Instrs[1].Imm = 43; // Store a different value.
  EXPECT_NE(Interpreter(M).run().MemChecksum,
            Interpreter(M2).run().MemChecksum);
}

//===----------------------------------------------------------------------===//
// Mode selection: run() rejects every mix of attached objects outside
// the ExecMode table with a diagnostic, in release builds too.
//===----------------------------------------------------------------------===//

/// main() { count[0]++; return 0; } -- the smallest instrumented module.
Module countingModule() {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId Z = B.emitConst(0);
  Instr K;
  K.Op = Opcode::ProfCountConst;
  K.Imm = 0;
  M.function(0).Blocks[0].Instrs.push_back(K);
  B.emitRet(Z);
  B.endFunction();
  return M;
}

ProfileRuntime countingRuntime() {
  ProfileRuntime RT(1);
  RT.setTable(0, PathTable::makeArray(1));
  return RT;
}

class NullObserver : public ExecObserver {};

class NullHook : public EpochHook {
public:
  void onEpoch(uint64_t, uint64_t) override {}
};

TEST(InterpModeDeathTest, ObserversRejectRuntime) {
  Module M = countingModule();
  ProfileRuntime RT = countingRuntime();
  NullObserver Obs;
  Interpreter I(M);
  I.setProfileRuntime(&RT);
  I.addObserver(&Obs);
  EXPECT_DEATH(I.run(), "observers watch clean modules only");
}

TEST(InterpModeDeathTest, ObserversRejectTraceRecorder) {
  Module M = countingModule();
  NullObserver Obs;
  trace::TraceRecorder Rec;
  Interpreter I(M);
  I.setTraceRecorder(&Rec);
  I.addObserver(&Obs);
  EXPECT_DEATH(I.run(), "observers watch clean modules only");
}

TEST(InterpModeDeathTest, ObserversRejectEpochHook) {
  Module M = countingModule();
  ProfileRuntime RT = countingRuntime();
  NullObserver Obs;
  NullHook Hook;
  Interpreter I(M);
  I.setProfileRuntime(&RT);
  I.setEpochHook(&Hook, 1);
  I.addObserver(&Obs);
  EXPECT_DEATH(I.run(), "observers watch clean modules only");
}

TEST(InterpModeDeathTest, TraceRecorderRejectsRuntime) {
  Module M = countingModule();
  ProfileRuntime RT = countingRuntime();
  trace::TraceRecorder Rec;
  Interpreter I(M);
  I.setProfileRuntime(&RT);
  I.setTraceRecorder(&Rec);
  EXPECT_DEATH(I.run(), "trace recorder .* profiling runtime");
}

TEST(InterpModeDeathTest, TraceRecorderRejectsEpochHook) {
  Module M = countingModule();
  NullHook Hook;
  trace::TraceRecorder Rec;
  Interpreter I(M);
  I.setTraceRecorder(&Rec);
  I.setEpochHook(&Hook, 1);
  EXPECT_DEATH(I.run(), "trace recorder cannot run with an epoch hook");
}

TEST(InterpModeDeathTest, EpochHookRequiresRuntime) {
  Module M = countingModule();
  NullHook Hook;
  Interpreter I(M);
  I.setEpochHook(&Hook, 1);
  EXPECT_DEATH(I.run(), "epoch hook samples a profiling runtime");
}

TEST(InterpModeDeathTest, EpochHookRequiresPositivePeriod) {
  Module M = countingModule();
  ProfileRuntime RT = countingRuntime();
  NullHook Hook;
  Interpreter I(M);
  I.setProfileRuntime(&RT);
  I.setEpochHook(&Hook, 0);
  EXPECT_DEATH(I.run(), "epoch hook needs a positive period");
}

TEST(InterpModeDeathTest, ProfOpWithoutRuntime) {
  Module M = countingModule();
  Interpreter I(M);
  EXPECT_DEATH(I.run(), "prof.count.const in function 0 ran with no "
                        "ProfileRuntime");
}

TEST(InterpMode, TraceAndAdaptiveRowsReportTelemetry) {
  // No row has a counting twin: with telemetry on, run() reports every
  // row's interp.runs / interp.instrs from its RunResult, and the
  // adaptive row (which has a runtime) its table traffic too.
  Module M = countingModule();
  ProfileRuntime RT = countingRuntime();
  NullHook Hook;
  auto Value = [](const char *Name) { return obs::counter(Name).value(); };
  uint64_t Runs0 = Value("interp.runs");
  uint64_t Instrs0 = Value("interp.instrs");
  uint64_t Incs0 = Value("interp.table.increments");
  uint64_t Probes0 = Value("interp.table.probes");

  obs::setInterpStatsForTesting(1);
  Interpreter A(M);
  A.setProfileRuntime(&RT);
  A.setEpochHook(&Hook, 1);
  RunResult RA = A.run();
  A.run(); // The table keeps its count; only this run's update is new.
  EXPECT_EQ(RT.table(0).countFor(0), 2u);
  EXPECT_EQ(Value("interp.runs"), Runs0 + 2);
  EXPECT_EQ(Value("interp.table.increments"), Incs0 + 2);
  EXPECT_EQ(Value("interp.table.probes"), Probes0 + 2);

  Module Clean;
  IRBuilder B(Clean);
  B.beginFunction("main", 0);
  B.emitRet(B.emitConst(0));
  B.endFunction();
  trace::TraceRecorder Rec, TimedRec(trace::DefaultTraceChunkBytes, true);
  Interpreter T(Clean);
  T.setTraceRecorder(&Rec);
  RunResult RT1 = T.run();
  T.setTraceRecorder(&TimedRec);
  RunResult RT2 = T.run();
  EXPECT_EQ(Value("interp.runs"), Runs0 + 4);
  EXPECT_EQ(Value("interp.instrs"),
            Instrs0 + 2 * RA.DynInstrs + RT1.DynInstrs + RT2.DynInstrs);
  EXPECT_EQ(Value("interp.table.increments"), Incs0 + 2);

  obs::setInterpStatsForTesting(0);
  A.run(); // Telemetry off: nothing is reported.
  obs::setInterpStatsForTesting(-1);
  EXPECT_EQ(Value("interp.runs"), Runs0 + 4);
  EXPECT_EQ(Value("interp.table.increments"), Incs0 + 2);
}

} // namespace
