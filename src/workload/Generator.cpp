//===- workload/Generator.cpp - Synthetic workload generation ---------------===//

#include "workload/Generator.h"

#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace ppp;

namespace {

/// Builds one function body. Tracks an estimated dynamic cost
/// (statement cost times the product of enclosing trip counts) so
/// nesting and calls cannot blow a single invocation past a work
/// budget; when the budget would be exceeded, the generator falls back
/// to straight-line arithmetic.
class FunctionGen {
public:
  FunctionGen(IRBuilder &B, const Module &M, Rng R,
              const WorkloadParams &P,
              const std::vector<double> &CalleeCosts, double Budget)
      : B(B), M(M), R(R), P(P), CalleeCosts(CalleeCosts), Budget(Budget) {}

  /// Generates a whole function body (after beginFunction) and returns
  /// its estimated per-invocation cost.
  double generate(unsigned NumParams) {
    State = B.emitConst(static_cast<int64_t>(R.next() >> 8));
    for (unsigned PI = 0; PI < NumParams; ++PI)
      B.emitBinary(Opcode::Xor, State, static_cast<RegId>(PI), State);
    RegId M0 = B.emitLoad(State);
    B.emitBinary(Opcode::Add, State, M0, State);
    pushPool(M0);
    Cost += 4;

    unsigned Stmts =
        static_cast<unsigned>(R.range(P.TopStmtsMin, P.TopStmtsMax));
    genStmts(Stmts, 0, 1.0);
    B.emitRet(State);
    Cost += 1;
    return Cost;
  }

  /// Generates loop-body statements into the current block using
  /// \p StateReg as the evolving state (used for main's driver loop).
  void generateStmts(RegId StateReg, unsigned Stmts) {
    State = StateReg;
    genStmts(Stmts, 1, 1.0);
  }

private:
  void bump(double Mult, double C) { Cost += Mult * C; }
  bool budgetAllows(double Extra) { return Cost + Extra <= Budget; }

  RegId pick() {
    if (Pool.empty() || R.percent(30))
      return State;
    return Pool[R.below(Pool.size())];
  }

  void pushPool(RegId V) {
    Pool.push_back(V);
    if (Pool.size() > 8)
      Pool.erase(Pool.begin());
  }

  /// state = state * K + C, keeping the high bits well mixed.
  void stepState(double Mult) {
    B.emitMulImm(State, 0x27bb2ee687b0b0fdLL, State);
    B.emitAddImm(State, static_cast<int64_t>(R.next() | 1), State);
    bump(Mult, 2);
  }

  /// A register holding 1 with probability ~TruePct/100.
  RegId cond(unsigned TruePct, double Mult) {
    stepState(Mult);
    RegId C33 = B.emitConst(33);
    RegId Hi = B.emitBinary(Opcode::Shr, State, C33);
    RegId C100 = B.emitConst(100);
    RegId Mod = B.emitBinary(Opcode::RemU, Hi, C100);
    RegId Cut = B.emitConst(static_cast<int64_t>(TruePct));
    RegId Cmp = B.emitBinary(Opcode::CmpLt, Mod, Cut);
    bump(Mult, 5);
    return Cmp;
  }

  void genOps(double Mult) {
    unsigned N = static_cast<unsigned>(R.range(P.OpsMin, P.OpsMax));
    for (unsigned I = 0; I < N; ++I) {
      if (R.percent(P.MemOpPct)) {
        if (R.percent(50)) {
          RegId V = B.emitLoad(pick());
          pushPool(V);
          B.emitBinary(Opcode::Xor, State, V, State);
          bump(Mult, 2);
        } else {
          B.emitStore(pick(), pick());
          bump(Mult, 1);
        }
        continue;
      }
      static const Opcode Ops[] = {Opcode::Add, Opcode::Sub, Opcode::Xor,
                                   Opcode::And, Opcode::Or,  Opcode::Add,
                                   Opcode::Mul, Opcode::Shl, Opcode::CmpLt};
      Opcode Op = Ops[R.below(sizeof(Ops) / sizeof(Ops[0]))];
      RegId V = B.emitBinary(Op, pick(), pick());
      pushPool(V);
      bump(Mult, 1);
    }
    stepState(Mult);
  }

  void genIf(unsigned Depth, double Mult) {
    bool Skewed = R.percent(P.SkewedIfPct);
    unsigned TruePct =
        Skewed ? static_cast<unsigned>(R.range(P.SkewMin, P.SkewMax))
               : static_cast<unsigned>(R.range(35, 65));
    RegId C = cond(TruePct, Mult);
    BlockId ThenB = B.newBlock();
    BlockId ElseB = B.newBlock();
    BlockId Join = B.newBlock();
    B.emitCondBr(C, ThenB, ElseB);

    B.setInsertPoint(ThenB);
    genStmts(static_cast<unsigned>(R.range(1, 2)), Depth + 1,
             Mult * TruePct / 100.0);
    B.emitBr(Join);

    B.setInsertPoint(ElseB);
    // The cold side sometimes carries real work, sometimes only the
    // jump -- both shapes occur in real programs.
    if (R.percent(70))
      genStmts(1, Depth + 1, Mult * (100 - TruePct) / 100.0);
    B.emitBr(Join);

    B.setInsertPoint(Join);
  }

  void genLoop(unsigned Depth, double Mult) {
    bool Hot = Depth == 0 && R.percent(P.HotLoopPct);
    int64_t TripLo = Hot ? P.HotTripMin : P.TripMin;
    int64_t TripHi = Hot ? P.HotTripMax : P.TripMax;
    int64_t TripEst = (TripLo + TripHi) / 2;

    if (!budgetAllows(Mult * static_cast<double>(TripEst) * 12)) {
      genOps(Mult);
      return;
    }

    // Trip count: constant, or data-dependent within [lo, hi].
    RegId TripReg;
    double TripAvg;
    if (R.percent(50)) {
      int64_t T = R.range(TripLo, TripHi);
      TripReg = B.emitConst(T);
      TripAvg = static_cast<double>(T);
    } else {
      stepState(Mult);
      RegId C33 = B.emitConst(33);
      RegId Hi = B.emitBinary(Opcode::Shr, State, C33);
      RegId W = B.emitConst(TripHi - TripLo + 1);
      RegId Mod = B.emitBinary(Opcode::RemU, Hi, W);
      TripReg = B.emitAddImm(Mod, TripLo);
      TripAvg = static_cast<double>(TripLo + TripHi) / 2.0;
      bump(Mult, 4);
    }

    RegId IVar = B.emitConst(0);
    BlockId Header = B.newBlock();
    BlockId Exit = B.newBlock();
    B.emitBr(Header);

    B.setInsertPoint(Header);
    genStmts(static_cast<unsigned>(R.range(1, 2)), Depth + 1,
             Mult * TripAvg);
    B.emitAddImm(IVar, 1, IVar);
    RegId Cmp = B.emitBinary(Opcode::CmpLt, IVar, TripReg);
    B.emitCondBr(Cmp, Header, Exit);
    bump(Mult * TripAvg, 3);

    B.setInsertPoint(Exit);
  }

  void genSwitch(unsigned Depth, double Mult) {
    unsigned Arms =
        static_cast<unsigned>(R.range(P.SwitchArmsMin, P.SwitchArmsMax));
    stepState(Mult);
    RegId C7 = B.emitConst(7);
    RegId Sel = B.emitBinary(Opcode::Shr, State, C7);
    bump(Mult, 2);
    std::vector<BlockId> Targets;
    for (unsigned A = 0; A < Arms; ++A)
      Targets.push_back(B.newBlock());
    BlockId Join = B.newBlock();
    B.emitSwitch(Sel, Targets);
    for (unsigned A = 0; A < Arms; ++A) {
      B.setInsertPoint(Targets[A]);
      genStmts(1, Depth + 1, Mult / Arms);
      B.emitBr(Join);
    }
    B.setInsertPoint(Join);
  }

  void genCall(double Mult) {
    if (CalleeCosts.empty()) {
      genOps(Mult);
      return;
    }
    size_t NumLeaves =
        std::min<size_t>(P.LeafFunctions, CalleeCosts.size());
    size_t Callee = NumLeaves > 0 && R.percent(P.LeafCallBiasPct)
                        ? R.below(NumLeaves)
                        : R.below(CalleeCosts.size());
    double CalleeCost = CalleeCosts[Callee];
    if (!budgetAllows(Mult * (CalleeCost + 3))) {
      genOps(Mult);
      return;
    }
    unsigned NumParams = M.function(static_cast<FuncId>(Callee)).NumParams;
    std::vector<RegId> Args;
    for (unsigned AI = 0; AI < NumParams; ++AI)
      Args.push_back(pick());
    RegId Res = B.emitCall(static_cast<FuncId>(Callee), Args);
    B.emitBinary(Opcode::Xor, State, Res, State);
    pushPool(Res);
    bump(Mult, 3 + CalleeCost);
  }

  void genStmts(unsigned Count, unsigned Depth, double Mult) {
    for (unsigned S = 0; S < Count; ++S) {
      unsigned Roll = static_cast<unsigned>(R.below(100));
      if (Depth < P.MaxDepth && Roll < P.IfPct) {
        genIf(Depth, Mult);
      } else if (Depth < P.MaxDepth && Roll < P.IfPct + P.LoopPct) {
        genLoop(Depth, Mult);
      } else if (Depth < P.MaxDepth &&
                 Roll < P.IfPct + P.LoopPct + P.SwitchPct) {
        genSwitch(Depth, Mult);
      } else if (Roll < P.IfPct + P.LoopPct + P.SwitchPct + P.CallPct) {
        genCall(Mult);
      } else {
        genOps(Mult);
      }
    }
  }

  IRBuilder &B;
  const Module &M;
  Rng R;
  const WorkloadParams &P;
  const std::vector<double> &CalleeCosts;
  double Budget;
  double Cost = 0;
  RegId State = -1;
  std::vector<RegId> Pool;
};

} // namespace

Module ppp::generateWorkload(const WorkloadParams &Params) {
  Module M;
  M.Name = Params.Name;
  M.MemWords = 4096;
  IRBuilder B(M);
  Rng Root(Params.Seed);

  // Per-invocation work budget for callable functions and for one
  // iteration of main's driver loop.
  const double FuncBudget = 20000.0;

  std::vector<double> Costs;
  for (unsigned FI = 0; FI < Params.NumFunctions; ++FI) {
    unsigned NumParams = static_cast<unsigned>(Root.range(1, 2));
    bool IsLeaf = FI < Params.LeafFunctions;
    WorkloadParams FnParams = Params;
    if (IsLeaf) {
      // Tiny hot helpers: at most one branch, no loops/switches/calls.
      FnParams.TopStmtsMin = 1;
      FnParams.TopStmtsMax = 2;
      FnParams.MaxDepth = 1;
      FnParams.LoopPct = 0;
      FnParams.SwitchPct = 0;
      FnParams.CallPct = 0;
      FnParams.OpsMin = 1;
      FnParams.OpsMax = 3;
    }
    B.beginFunction((IsLeaf ? "leaf" : "f") + std::to_string(FI),
                    NumParams);
    FunctionGen G(B, M, Root.fork(), FnParams, Costs, FuncBudget);
    Costs.push_back(G.generate(NumParams));
    B.endFunction();
  }

  // main: a driver loop around generated work plus explicit calls.
  FuncId MainId = B.beginFunction("main", 0);
  M.MainId = MainId;
  {
    Rng MainRng = Root.fork();
    RegId State = B.emitConst(static_cast<int64_t>(MainRng.next() >> 8));
    RegId IVar = B.emitConst(0);
    RegId Trip = B.emitConst(static_cast<int64_t>(Params.MainLoopTrips));
    BlockId Header = B.newBlock();
    BlockId Exit = B.newBlock();
    B.emitBr(Header);

    B.setInsertPoint(Header);
    B.emitBinary(Opcode::Xor, State, IVar, State);
    FunctionGen G(B, M, MainRng.fork(), Params, Costs, FuncBudget);
    G.generateStmts(State, static_cast<unsigned>(MainRng.range(2, 4)));
    // The driver's explicit calls target the *non-leaf* functions (the
    // program's "phases"), guaranteeing the large bodies actually run;
    // leaf utilities are reached through the generated statements and
    // through the phases themselves.
    size_t FirstPhase = std::min<size_t>(Params.LeafFunctions, Costs.size());
    size_t NumPhases = Costs.size() - FirstPhase;
    unsigned Calls =
        Costs.empty() ? 0
                      : std::min<unsigned>(3, static_cast<unsigned>(
                                                  Costs.size()));
    for (unsigned CI = 0; CI < Calls; ++CI) {
      FuncId Callee = static_cast<FuncId>(
          NumPhases > 0 ? FirstPhase + MainRng.below(NumPhases)
                        : MainRng.below(Costs.size()));
      unsigned NumParams = M.function(Callee).NumParams;
      std::vector<RegId> Args;
      for (unsigned AI = 0; AI < NumParams; ++AI)
        Args.push_back(AI % 2 == 0 ? State : IVar);
      RegId Res = B.emitCall(Callee, Args);
      B.emitBinary(Opcode::Xor, State, Res, State);
    }
    B.emitStore(IVar, State);
    B.emitAddImm(IVar, 1, IVar);
    RegId Cmp = B.emitBinary(Opcode::CmpLt, IVar, Trip);
    B.emitCondBr(Cmp, Header, Exit);

    B.setInsertPoint(Exit);
    B.emitRet(State);
  }
  B.endFunction();

  assert(verifyModule(M).empty() && "generated module fails verification");
  return M;
}

Module ppp::generatePhasedWorkload(const PhasedWorkloadParams &Params) {
  Module MA = generateWorkload(Params.PhaseA);
  Module MB = generateWorkload(Params.PhaseB);

  Module M;
  M.Name = Params.Name;
  M.MemWords = std::max(MA.MemWords, MB.MemWords);

  // Fuse: A's functions keep their ids, B's shift up by A's count.
  FuncId Offset = static_cast<FuncId>(MA.numFunctions());
  M.Functions = std::move(MA.Functions);
  for (Function &F : MB.Functions) {
    F.Name += "_b";
    for (BasicBlock &BB : F.Blocks)
      for (Instr &I : BB.Instrs)
        if (I.Op == Opcode::Call)
          I.Callee += Offset;
    M.Functions.push_back(std::move(F));
  }
  // The old mains take no parameters and end in Ret: callable as-is.
  FuncId DriverA = MA.MainId;
  FuncId DriverB = Offset + MB.MainId;

  IRBuilder B(M);
  FuncId MainId = B.beginFunction("main", 0);
  M.MainId = MainId;
  {
    RegId State = B.emitConst(0x9e37);
    RegId IVar = B.emitConst(0);
    RegId Trip = B.emitConst(static_cast<int64_t>(Params.Trips));
    RegId Len = B.emitConst(
        static_cast<int64_t>(std::max<uint64_t>(1, Params.PhaseLen)));
    RegId One = B.emitConst(1);
    RegId Zero = B.emitConst(0);
    BlockId Header = B.newBlock();
    BlockId CallA = B.newBlock();
    BlockId CallB = B.newBlock();
    BlockId Latch = B.newBlock();
    BlockId Exit = B.newBlock();
    B.emitBr(Header);

    // Phase select: ((i / PhaseLen) & 1) == 0 -> A, else B.
    B.setInsertPoint(Header);
    RegId Phase = B.emitBinary(Opcode::DivU, IVar, Len);
    RegId Bit = B.emitBinary(Opcode::And, Phase, One);
    RegId IsA = B.emitBinary(Opcode::CmpEq, Bit, Zero);
    B.emitCondBr(IsA, CallA, CallB);

    B.setInsertPoint(CallA);
    RegId RA = B.emitCall(DriverA, {});
    B.emitBinary(Opcode::Xor, State, RA, State);
    B.emitBr(Latch);

    B.setInsertPoint(CallB);
    RegId RB = B.emitCall(DriverB, {});
    B.emitBinary(Opcode::Xor, State, RB, State);
    B.emitBr(Latch);

    B.setInsertPoint(Latch);
    B.emitStore(IVar, State);
    B.emitAddImm(IVar, 1, IVar);
    RegId Cmp = B.emitBinary(Opcode::CmpLt, IVar, Trip);
    B.emitCondBr(Cmp, Header, Exit);

    B.setInsertPoint(Exit);
    B.emitRet(State);
  }
  B.endFunction();

  assert(verifyModule(M).empty() && "phased module fails verification");
  return M;
}

namespace {

/// Large static size, short cheap paths: a small diamond into a 12-arm
/// switch, arms straight-line unit-cost ops. The leading diamond keeps
/// the routine's paths from all being obvious (a path per switch arm
/// alone would have a defining edge each, and the ppp/trace plan's
/// skip-obvious gate would leave the routine uninstrumented -- and so
/// invisible to timing attribution).
FuncId emitBushy(IRBuilder &B) {
  FuncId F = B.beginFunction("bushy", 1);
  RegId S = B.emitMov(0);
  RegId Salt = B.emitConst(0x9e3779b97f4a7c15LL);
  B.emitBinary(Opcode::Xor, S, Salt, S);
  RegId Seven = B.emitConst(7);
  RegId T = B.emitBinary(Opcode::Shr, S, Seven);
  B.emitBinary(Opcode::Add, S, T, S);
  RegId Two = B.emitConst(2);
  RegId Par = B.emitBinary(Opcode::And, S, Two);
  BlockId DThen = B.newBlock(), DElse = B.newBlock(), DJoin = B.newBlock();
  B.emitCondBr(Par, DThen, DElse);
  B.setInsertPoint(DThen);
  B.emitAddImm(S, 0x11, S);
  B.emitBr(DJoin);
  B.setInsertPoint(DElse);
  B.emitAddImm(S, 0x29, S);
  B.emitBr(DJoin);
  B.setInsertPoint(DJoin);
  constexpr unsigned Arms = 12;
  std::vector<BlockId> ArmBlocks;
  for (unsigned A = 0; A < Arms; ++A)
    ArmBlocks.push_back(B.newBlock());
  BlockId Exit = B.newBlock();
  B.emitSwitch(S, ArmBlocks); // The interpreter wraps modulo NumTargets.
  for (unsigned A = 0; A < Arms; ++A) {
    B.setInsertPoint(ArmBlocks[A]);
    RegId C = B.emitConst(0x5851f42d4c957f2dLL + A);
    B.emitBinary(Opcode::Xor, S, C, S);
    B.emitAddImm(S, 1 + A, S);
    RegId Three = B.emitConst(3);
    RegId U = B.emitBinary(Opcode::Shl, S, Three);
    B.emitBinary(Opcode::Add, S, U, S);
    B.emitBr(Exit);
  }
  B.setInsertPoint(Exit);
  B.emitRet(S);
  B.endFunction();
  return F;
}

/// Six branch diamonds whose arms are dense straight-line work. With
/// \p Heavy the work is DivU/RemU (Div-weighted in the cost model);
/// otherwise the same shape runs unit-cost ops.
FuncId emitDense(IRBuilder &B, bool Heavy) {
  FuncId F = B.beginFunction("dense", 1);
  RegId S = B.emitMov(0);
  RegId C7 = B.emitConst(7);
  RegId C13 = B.emitConst(13);
  RegId C1 = B.emitConst(1);
  Opcode O1 = Heavy ? Opcode::DivU : Opcode::Shr;
  Opcode O2 = Heavy ? Opcode::RemU : Opcode::Xor;
  for (unsigned Seg = 0; Seg < 6; ++Seg) {
    RegId Cond = B.emitBinary(Opcode::And, S, C1);
    BlockId Then = B.newBlock(), Else = B.newBlock(), Join = B.newBlock();
    B.emitCondBr(Cond, Then, Else);
    for (BlockId Arm : {Then, Else}) {
      B.setInsertPoint(Arm);
      RegId D = B.emitBinary(O1, S, C7);
      RegId R = B.emitBinary(O2, S, C13);
      B.emitBinary(Opcode::Add, S, D, S);
      B.emitBinary(Opcode::Add, S, R, S);
      RegId D2 = B.emitBinary(O1, S, C13);
      RegId R2 = B.emitBinary(O2, S, C7);
      B.emitBinary(Opcode::Add, S, D2, S);
      B.emitBinary(Opcode::Xor, S, R2, S);
      B.emitAddImm(S, Arm == Then ? 0x51 : 0x73, S);
      B.emitBr(Join);
    }
    B.setInsertPoint(Join);
  }
  B.emitRet(S);
  B.endFunction();
  return F;
}

/// Calls \p Many \p ManyN times and \p Few \p FewN times, mixing the
/// results into the state it returns.
FuncId emitDriver(IRBuilder &B, const std::string &Name, FuncId Many,
                  unsigned ManyN, FuncId Few, unsigned FewN) {
  FuncId F = B.beginFunction(Name, 1);
  RegId S = B.emitMov(0);
  for (unsigned I = 0; I < ManyN; ++I) {
    RegId R = B.emitCall(Many, {S});
    B.emitBinary(Opcode::Xor, S, R, S);
  }
  for (unsigned I = 0; I < FewN; ++I) {
    RegId R = B.emitCall(Few, {S});
    B.emitBinary(Opcode::Add, S, R, S);
  }
  B.emitRet(S);
  B.endFunction();
  return F;
}

} // namespace

Module ppp::generateCostSkewedWorkload(bool Heavy) {
  constexpr int64_t Trips = 384, PhaseLen = 128;
  Module M;
  M.Name = Heavy ? "skewed" : "uniform";
  IRBuilder B(M);
  FuncId Bushy = emitBushy(B);
  FuncId Dense = emitDense(B, Heavy);
  // The hot *count* always points at bushy in phase A, while the hot
  // *cost* points at dense even there when Heavy.
  FuncId DrvA = emitDriver(B, "drive_a", Bushy, 8, Dense, 1);
  FuncId DrvB = emitDriver(B, "drive_b", Dense, 4, Bushy, 1);

  // Driver iterations alternate DrvA / DrvB every PhaseLen, state
  // threaded through memory so runs are deterministic.
  FuncId Main = B.beginFunction("main", 0);
  RegId Addr = B.emitConst(3);
  RegId St = B.emitLoad(Addr);
  RegId I = B.emitConst(0);
  RegId N = B.emitConst(Trips);
  RegId Len = B.emitConst(PhaseLen);
  RegId One = B.emitConst(1);
  RegId OutAddr = B.emitConst(5);
  BlockId Head = B.newBlock(), Body = B.newBlock(), PhA = B.newBlock(),
          PhB = B.newBlock(), Latch = B.newBlock(), Exit = B.newBlock();
  B.emitBr(Head);
  B.setInsertPoint(Head);
  RegId Cmp = B.emitBinary(Opcode::CmpLt, I, N);
  B.emitCondBr(Cmp, Body, Exit);
  B.setInsertPoint(Body);
  RegId Ph = B.emitBinary(Opcode::DivU, I, Len);
  RegId Sel = B.emitBinary(Opcode::And, Ph, One);
  B.emitCondBr(Sel, PhB, PhA);
  B.setInsertPoint(PhA);
  RegId RA = B.emitCall(DrvA, {St});
  B.emitMov(RA, St);
  B.emitBr(Latch);
  B.setInsertPoint(PhB);
  RegId RB = B.emitCall(DrvB, {St});
  B.emitMov(RB, St);
  B.emitBr(Latch);
  B.setInsertPoint(Latch);
  B.emitBinary(Opcode::Add, I, One, I);
  B.emitBr(Head);
  B.setInsertPoint(Exit);
  B.emitStore(OutAddr, St);
  B.emitRet(St);
  B.endFunction();
  M.MainId = Main;

  assert(verifyModule(M).empty() && "cost-skewed module fails verification");
  return M;
}
