//===- tests/interp_test.cpp - Interpreter semantics tests --------------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "trace/TraceRecorder.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

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

class NullObserver : public ExecObserver {};

class NullHook : public EpochHook {
public:
  void onEpoch(uint64_t, uint64_t) override {}
};

/// Runs \p M once on each of the six ExecMode rows, in enum order. The
/// Profiled and Adaptive rows count into one-slot array tables, the
/// Adaptive row calls \p Hook (a NullHook if null) at every Call, and
/// trace bytes are priced at zero, so every row's Cost is comparable.
std::vector<RunResult> runOnEveryRow(const Module &M, InterpOptions O,
                                     EpochHook *Hook = nullptr) {
  O.Costs.TraceByte = 0;
  O.Costs.TraceStampByte = 0;
  ProfileRuntime RT(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F)
    RT.setTable(static_cast<FuncId>(F), PathTable::makeArray(1));
  NullObserver Obs;
  NullHook Null;
  std::vector<RunResult> Rs;
  Rs.push_back(Interpreter(M, O).run());
  {
    Interpreter I(M, O);
    I.addObserver(&Obs);
    Rs.push_back(I.run());
  }
  {
    Interpreter I(M, O);
    I.setProfileRuntime(&RT);
    Rs.push_back(I.run());
  }
  for (bool Timed : {false, true}) {
    trace::TraceRecorder Rec(trace::DefaultTraceChunkBytes, Timed);
    Interpreter I(M, O);
    I.setTraceRecorder(&Rec);
    Rs.push_back(I.run());
  }
  {
    Interpreter I(M, O);
    I.setProfileRuntime(&RT);
    I.setEpochHook(Hook ? Hook : &Null, 1);
    Rs.push_back(I.run());
  }
  return Rs;
}

void expectSameResult(const RunResult &Got, const RunResult &Want) {
  EXPECT_EQ(Got.ReturnValue, Want.ReturnValue);
  EXPECT_EQ(Got.DynInstrs, Want.DynInstrs);
  EXPECT_EQ(Got.Cost, Want.Cost);
  EXPECT_EQ(Got.MemChecksum, Want.MemChecksum);
  EXPECT_EQ(Got.FuelExhausted, Want.FuelExhausted);
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

TEST(Interp, FuelExhaustionIsExactInsideSegments) {
  // The loop charges fuel and cost once per straight-line segment; a
  // run whose fuel ends inside a segment must still stop after exactly
  // Fuel instructions with the per-instruction cost of that prefix.
  Module M;
  IRBuilder B(M);
  FuncId Leaf = B.beginFunction("leaf", 1);
  RegId T = B.emitAddImm(0, 5);
  RegId U = B.emitBinary(Opcode::Mul, T, T); // Both operands forwarded.
  B.emitRet(U);
  B.endFunction();
  FuncId MainId = B.beginFunction("main", 0);
  RegId A = B.emitConst(3);
  RegId Four = B.emitConst(4);
  RegId C = B.emitBinary(Opcode::Add, A, Four);
  RegId D = B.emitBinary(Opcode::Mul, C, C);
  RegId E = B.emitBinary(Opcode::Sub, D, A);
  RegId F = B.emitBinary(Opcode::Shl, E, A);
  RegId G = B.emitBinary(Opcode::DivU, F, Four);
  B.emitStore(A, G);
  RegId H = B.emitCall(Leaf, {G}); // Mid-block: a segment ends here.
  RegId I = B.emitBinary(Opcode::Add, H, A);
  RegId J = B.emitBinary(Opcode::Xor, I, A);
  RegId K = B.emitConst(0);
  BlockId Header = B.newBlock(), Body = B.newBlock(), Left = B.newBlock(),
          Right = B.newBlock(), Exit = B.newBlock();
  B.emitBr(Header);
  B.setInsertPoint(Header);
  B.emitCondBr(B.emitBinary(Opcode::CmpLt, K, A), Body, Exit);
  B.setInsertPoint(Body);
  B.emitSwitch(B.emitBinary(Opcode::Add, K, J), {Left, Right});
  for (BlockId Arm : {Left, Right}) {
    B.setInsertPoint(Arm);
    B.emitAddImm(K, 1, K);
    B.emitBr(Header);
  }
  B.setInsertPoint(Exit);
  B.emitRet(B.emitBinary(Opcode::Add, J, K));
  B.endFunction();
  M.MainId = MainId;
  ASSERT_EQ(verifyModule(M), "");

  // The executed instructions, in order.
  using O = Opcode;
  std::vector<Opcode> Seq = {O::Const, O::Const, O::Add,   O::Mul,
                             O::Sub,   O::Shl,   O::DivU,  O::Store,
                             O::Call,  O::AddImm, O::Mul,  O::Ret,
                             O::Add,   O::Xor,   O::Const, O::Br};
  for (int Iter = 0; Iter < 3; ++Iter)
    Seq.insert(Seq.end(),
               {O::CmpLt, O::CondBr, O::Add, O::Switch, O::AddImm, O::Br});
  Seq.insert(Seq.end(), {O::CmpLt, O::CondBr, O::Add, O::Ret});
  const uint64_t N = Seq.size();
  const size_t CallAt = 8;
  ASSERT_EQ(Seq[CallAt], O::Call);
  CostModel CM;
  std::vector<uint64_t> Prefix = {0};
  for (Opcode Op : Seq)
    Prefix.push_back(Prefix.back() + CM.costOf(Op));

  struct Sampler : EpochHook {
    std::vector<std::pair<uint64_t, uint64_t>> Seen;
    void onEpoch(uint64_t DynInstrs, uint64_t Cost) override {
      Seen.push_back({DynInstrs, Cost});
    }
  };
  for (uint64_t Fuel = 0; Fuel <= N + 1; ++Fuel) {
    SCOPED_TRACE("Fuel = " + std::to_string(Fuel));
    InterpOptions Opts;
    Opts.Fuel = Fuel;
    Sampler Hook;
    std::vector<RunResult> Rs = runOnEveryRow(M, Opts, &Hook);
    uint64_t Ran = std::min(Fuel, N);
    EXPECT_EQ(Rs[0].DynInstrs, Ran);
    EXPECT_EQ(Rs[0].FuelExhausted, Fuel < N);
    EXPECT_EQ(Rs[0].Cost, Prefix[Ran]);
    EXPECT_EQ(Rs[0].ReturnValue, Fuel < N ? 0 : 9418);
    for (size_t Row = 1; Row < Rs.size(); ++Row) {
      SCOPED_TRACE("row " + std::to_string(Row));
      expectSameResult(Rs[Row], Rs[0]);
    }
    // The epoch hook at the Call sees the per-instruction totals.
    if (Fuel > CallAt) {
      ASSERT_EQ(Hook.Seen.size(), 1u);
      EXPECT_EQ(Hook.Seen[0].first, CallAt + 1);
      EXPECT_EQ(Hook.Seen[0].second, Prefix[CallAt + 1]);
    } else {
      EXPECT_TRUE(Hook.Seen.empty());
    }
  }
}

TEST(Interp, OperandForwardingBoundaries) {
  // Operands read from the previous instruction's result (the loop's
  // Last register) in every shape, and the places it must not be:
  // after a profiling op, at a block start, after a Call.
  Module M;
  IRBuilder B(M);
  FuncId Triple = B.beginFunction("triple", 1);
  B.emitRet(B.emitMulImm(0, 3));
  B.endFunction();
  FuncId MainId = B.beginFunction("main", 0);
  // Records the variant the decoder must give the instruction just
  // emitted (bit 0: first operand forwarded, bit 1: second).
  std::vector<std::tuple<BlockId, size_t, Opcode, unsigned>> Want;
  auto Expect = [&](unsigned Variant) {
    const BasicBlock &BB = M.function(MainId).Blocks[B.currentBlock()];
    Want.emplace_back(B.currentBlock(), BB.Instrs.size() - 1,
                      BB.Instrs.back().Op, Variant);
  };
  auto EmitPathOp = [&](Opcode Op, RegId StrayA) {
    // A profiling op with a stray register in A: it writes the path
    // register, never a value, so it must not be forwarded from.
    Instr P;
    P.Op = Op;
    P.Imm = 7;
    P.A = StrayA;
    M.function(MainId).Blocks[B.currentBlock()].Instrs.push_back(P);
  };
  RegId A = B.emitConst(6);
  RegId Sq = B.emitBinary(Opcode::Mul, A, A); // B == C == previous.
  Expect(3);
  RegId C = B.emitConst(10);
  B.emitBinary(Opcode::Sub, C, A, C); // In place: A == B == previous.
  Expect(1);
  B.emitAddImm(C, 1, C);
  Expect(1);
  RegId V = B.emitConst(9);
  B.emitStore(V, V); // Value and address from the previous result.
  Expect(3);
  RegId X = B.emitConst(1);
  B.emitConst(100);
  EmitPathOp(Opcode::ProfSet, X);
  RegId Z = B.emitBinary(Opcode::Add, X, X);
  Expect(0);
  B.emitConst(100);
  EmitPathOp(Opcode::ProfAdd, Z);
  RegId Z2 = B.emitBinary(Opcode::Add, Z, Z);
  Expect(0);
  RegId P = B.emitConst(7);
  RegId Q = B.emitCall(Triple, {P});
  RegId R = B.emitBinary(Opcode::Add, Q, P); // First after the Call.
  Expect(0);
  RegId Less = B.emitBinary(Opcode::CmpLt, A, Sq);
  BlockId Pre = B.newBlock(), Header = B.newBlock(), Done = B.newBlock(),
          Bad = B.newBlock(), Sum = B.newBlock();
  B.emitCondBr(Less, Pre, Bad);
  Expect(1);
  // The loop header's static predecessor writes S last, and the header
  // reads S first: a block start, so no forwarding.
  B.setInsertPoint(Pre);
  RegId K = B.emitConst(0);
  RegId Three = B.emitConst(3);
  RegId S = B.emitConst(2);
  B.emitBr(Header);
  B.setInsertPoint(Header);
  B.emitBinary(Opcode::Add, S, S, S);
  Expect(0);
  B.emitAddImm(K, 1, K);
  B.emitCondBr(B.emitBinary(Opcode::CmpLt, K, Three), Header, Done);
  Expect(1);
  B.setInsertPoint(Done);
  RegId W = B.emitConst(9);
  RegId L = B.emitLoad(W);
  Expect(1);
  B.emitSwitch(B.emitConst(5), {Bad, Bad, Sum}); // 5 % 3 == 2.
  Expect(1);
  B.setInsertPoint(Bad);
  B.emitRet(B.emitConst(-1));
  B.setInsertPoint(Sum);
  RegId T = B.emitBinary(Opcode::Add, Sq, C);
  for (RegId Term : {Z, Z2, R, S, L})
    B.emitBinary(Opcode::Add, T, Term, T);
  B.emitRet(T);
  Expect(1);
  B.endFunction();
  M.MainId = MainId;

  DecodedFunction DF =
      decodeFunction(M.function(MainId), CostModel(), /*HashedTable=*/false);
  for (const auto &[Block, Index, Op, Variant] : Want) {
    const DecodedInstr &D =
        DF.Code[DF.BlockStart[static_cast<size_t>(Block)] + Index];
    EXPECT_EQ(D.Op, Op);
    EXPECT_EQ(D.Dispatch, DispatchBase[static_cast<uint8_t>(Op)] + Variant)
        << opcodeName(Op) << " in block " << Block << " at " << Index;
  }

  // 36 + 5 + 2 + 4 + 21 + 7 + 16 + 9.
  std::vector<RunResult> Rs = runOnEveryRow(M, InterpOptions());
  EXPECT_EQ(Rs[0].ReturnValue, 100);
  EXPECT_FALSE(Rs[0].FuelExhausted);
  for (size_t Row = 1; Row < Rs.size(); ++Row) {
    SCOPED_TRACE("row " + std::to_string(Row));
    expectSameResult(Rs[Row], Rs[0]);
  }
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
