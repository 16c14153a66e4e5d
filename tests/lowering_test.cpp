//===- tests/lowering_test.cpp - Instrumentation lowering unit tests -----------===//
///
/// Direct tests of the op-to-IR mapping: a back edge executes its
/// LoopExit (count) ops before its LoopEntry (init) ops, Fig. 1(g);
/// insertion sites prefer existing blocks and split only critical
/// edges; entry ops run once per invocation.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pathprof/EventCounting.h"
#include "pathprof/Lowering.h"
#include "pathprof/Numbering.h"

using namespace ppp;
using namespace ppp::testutil;

namespace {

/// b0 -> H; H -> {body, exit}; body -> H (back edge); exit -> ret.
struct LoopFixture {
  Module M;
  BlockId H, Body, Exit;
  int BackEdgeId = -1;

  LoopFixture() {
    IRBuilder B(M);
    B.beginFunction("main", 0);
    RegId I = B.emitConst(0);
    RegId N = B.emitConst(10);
    H = B.newBlock();
    Body = B.newBlock();
    Exit = B.newBlock();
    B.emitBr(H);
    B.setInsertPoint(H);
    RegId C = B.emitBinary(Opcode::CmpLt, I, N);
    B.emitCondBr(C, Body, Exit);
    B.setInsertPoint(Body);
    B.emitAddImm(I, 1, I);
    B.emitBr(H);
    B.setInsertPoint(Exit);
    B.emitRet(I);
    B.endFunction();
    EXPECT_EQ(verifyModule(M), "");
    CfgView Cfg(M.function(0));
    BackEdgeId = Cfg.edgeIdFor(Body, 0);
  }
};

TEST(Lowering, BackEdgeRunsCountBeforeInit) {
  LoopFixture Fx;
  CfgView Cfg(Fx.M.function(0));
  LoopInfo LI = LoopInfo::compute(Cfg);
  BLDag Dag = BLDag::build(Cfg, LI);
  std::vector<int64_t> Freq(Cfg.numEdges(), 10);
  Dag.setFrequencies(Freq, 1);
  NumberingResult Num = assignPathNumbers(Dag, NumberingOrder::BallLarus);
  runEventCounting(Dag);
  // No pushing: keep the dummy-edge ops in their canonical places.
  PlacementResult Placement =
      placeInstrumentation(Dag, Num, PushMode::None);
  SiteOps Sites = finalizeSites(Dag, Placement);

  // The back edge's op list must be: [LoopExit's count ...] then
  // [LoopEntry's set ...].
  auto It = Sites.EdgeOps.find(Fx.BackEdgeId);
  ASSERT_NE(It, Sites.EdgeOps.end());
  const std::vector<ProfOp> &Ops = It->second;
  ASSERT_GE(Ops.size(), 2u);
  bool SeenCount = false;
  for (const ProfOp &Op : Ops) {
    if (Op.Op == Opcode::ProfCountIdx || Op.Op == Opcode::ProfCountConst) {
      EXPECT_FALSE(SeenCount) << "two counts on one back edge";
      SeenCount = true;
    }
    if (Op.Op == Opcode::ProfSet) {
      EXPECT_TRUE(SeenCount) << "init must follow the count (Fig. 1(g))";
    }
  }
  EXPECT_TRUE(SeenCount);
}

TEST(Lowering, SingleSuccessorEdgeInsertsBeforeTerminator) {
  LoopFixture Fx;
  CfgView Cfg(Fx.M.function(0));
  Module Clone = Fx.M;
  SiteOps Sites;
  // Ops on b0 -> H: b0 has a single successor.
  Sites.EdgeOps[Cfg.edgeIdFor(0, 0)] = {{Opcode::ProfAdd, 7}};
  unsigned BlocksBefore = Clone.function(0).numBlocks();
  lowerInstrumentation(Clone.function(0), Cfg, Sites);
  EXPECT_EQ(Clone.function(0).numBlocks(), BlocksBefore) << "no split";
  const BasicBlock &B0 = Clone.function(0).block(0);
  ASSERT_GE(B0.Instrs.size(), 2u);
  EXPECT_EQ(B0.Instrs[B0.Instrs.size() - 2].Op, Opcode::ProfAdd);
  EXPECT_TRUE(B0.Instrs.back().isTerminator());
  EXPECT_EQ(verifyModule(Clone), "");
}

TEST(Lowering, CriticalEdgeGetsSplitBlock) {
  // b0 condbr's false edge goes straight to a join that another block
  // also reaches: multi-successor source, multi-predecessor target.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId C = B.emitConst(1);
  BlockId T = B.newBlock(), J = B.newBlock();
  B.emitCondBr(C, T, J);
  B.setInsertPoint(T);
  B.emitBr(J);
  B.setInsertPoint(J);
  B.emitRet(C);
  B.endFunction();
  ASSERT_EQ(verifyModule(M), "");

  CfgView Cfg(M.function(0));
  SiteOps Sites;
  int Critical = Cfg.edgeIdFor(0, 1);
  Sites.EdgeOps[Critical] = {{Opcode::ProfAdd, 3}};
  Module Clone = M;
  unsigned BlocksBefore = Clone.function(0).numBlocks();
  lowerInstrumentation(Clone.function(0), Cfg, Sites);
  EXPECT_EQ(Clone.function(0).numBlocks(), BlocksBefore + 1)
      << "critical edge must be split";
  ASSERT_EQ(verifyModule(Clone), "");
  // The new block carries the op and jumps to the join.
  const BasicBlock &NB =
      Clone.function(0).block(static_cast<BlockId>(BlocksBefore));
  ASSERT_EQ(NB.Instrs.size(), 2u);
  EXPECT_EQ(NB.Instrs[0].Op, Opcode::ProfAdd);
  EXPECT_EQ(NB.Instrs[1].Op, Opcode::Br);
  EXPECT_EQ(NB.Instrs[1].Targets[0], J);
  // And b0's false target now points at the split block.
  EXPECT_EQ(Clone.function(0).block(0).terminator().Targets[1],
            static_cast<BlockId>(BlocksBefore));
}

TEST(Lowering, RetOpsLandBeforeTheReturn) {
  LoopFixture Fx;
  CfgView Cfg(Fx.M.function(0));
  Module Clone = Fx.M;
  SiteOps Sites;
  Sites.RetOps[Fx.Exit] = {{Opcode::ProfCountIdx, 0}};
  lowerInstrumentation(Clone.function(0), Cfg, Sites);
  const BasicBlock &BB = Clone.function(0).block(Fx.Exit);
  ASSERT_GE(BB.Instrs.size(), 2u);
  EXPECT_EQ(BB.Instrs[BB.Instrs.size() - 2].Op, Opcode::ProfCountIdx);
  EXPECT_EQ(BB.Instrs.back().Op, Opcode::Ret);
  EXPECT_EQ(verifyModule(Clone), "");
}

TEST(Lowering, EntryOpsAtTopWhenEntryHasNoPreds) {
  LoopFixture Fx;
  CfgView Cfg(Fx.M.function(0));
  Module Clone = Fx.M;
  SiteOps Sites;
  Sites.EntryOps = {{Opcode::ProfSet, 0}};
  unsigned BlocksBefore = Clone.function(0).numBlocks();
  lowerInstrumentation(Clone.function(0), Cfg, Sites);
  EXPECT_EQ(Clone.function(0).numBlocks(), BlocksBefore);
  EXPECT_EQ(Clone.function(0).block(0).Instrs[0].Op, Opcode::ProfSet);
  EXPECT_EQ(verifyModule(Clone), "");
}

TEST(Lowering, EntryStubBlockFrequenciesDeriveOpCounts) {
  // loop(n): b0 is the loop header, so entry ops need a stub.
  //   b0:   z = 0; c = z < n; condbr c, body, exit
  //   body: n = n - 1; c = z < n; condbr c, b0, exit
  //   exit: ret n
  // main calls loop(3): b0 and body run three times, exit once, the
  // back edge body -> b0 twice.
  Module M;
  IRBuilder B(M);
  B.beginFunction("loop", 1);
  RegId N = 0;
  BlockId Body = B.newBlock(), Exit = B.newBlock();
  RegId Z = B.emitConst(0);
  RegId C = B.emitBinary(Opcode::CmpLt, Z, N);
  B.emitCondBr(C, Body, Exit);
  B.setInsertPoint(Body);
  B.emitAddImm(N, -1, N);
  B.emitBinary(Opcode::CmpLt, Z, N, C);
  B.emitCondBr(C, 0, Exit);
  B.setInsertPoint(Exit);
  B.emitRet(N);
  B.endFunction();
  M.MainId = B.beginFunction("main", 0);
  B.emitRet(B.emitCall(0, {B.emitConst(3)}));
  B.endFunction();
  ASSERT_EQ(verifyModule(M), "");

  // Entry ops plus ops on both critical edges out of body (into block
  // 0, and into the two-predecessor exit): two splits, then the stub.
  CfgView Cfg(M.function(0));
  SiteOps Sites;
  Sites.EntryOps = {{Opcode::ProfSet, 0}};
  Sites.EdgeOps[Cfg.edgeIdFor(Body, 0)] = {{Opcode::ProfAdd, 1}};
  Sites.EdgeOps[Cfg.edgeIdFor(Body, 1)] = {{Opcode::ProfAdd, 2}};
  Module Clone = M;
  lowerInstrumentation(Clone.function(0), Cfg, Sites);
  ASSERT_EQ(verifyModule(Clone), "");
  ASSERT_EQ(Clone.function(0).numBlocks(), 6u);
  const BasicBlock &Stub = Clone.function(0).block(0);
  ASSERT_EQ(Stub.Instrs.size(), 2u);
  EXPECT_EQ(Stub.Instrs[0].Op, Opcode::ProfSet);
  EXPECT_EQ(Stub.Instrs[1].Op, Opcode::Br);

  ProfiledRun Clean = profileModule(M);
  std::vector<std::vector<int64_t>> Freqs = blockFreqs(M, Clean.EP);
  // Stub once, relocated body three times, splits once per traversal.
  Freqs[0] = loweredBlockFreqs(Cfg, Sites, Clean.EP.Funcs[0]);
  EXPECT_EQ(Freqs[0], (std::vector<int64_t>{1, 3, 1, 2, 1, 3}));

  OpCounts Want{};
  auto Set = [&Want](Opcode Op, uint64_t N) {
    Want[static_cast<uint8_t>(Op)] = N;
  };
  Set(Opcode::Const, 3 + 1);      // z per header visit, main's 3.
  Set(Opcode::CmpLt, 3 + 3);      // Header and body.
  Set(Opcode::CondBr, 3 + 3);
  Set(Opcode::AddImm, 3);
  Set(Opcode::Ret, 1 + 1);
  Set(Opcode::Call, 1);
  Set(Opcode::ProfSet, 1);        // The stub, once per invocation.
  Set(Opcode::ProfAdd, 2 + 1);    // body -> b0 twice, body -> exit once.
  Set(Opcode::Br, 1 + 2 + 1);     // Stub and both splits.
  EXPECT_EQ(deriveOpCounts(Clone, Freqs), Want);

  RunResult R = Interpreter(Clone).run();
  EXPECT_EQ(R.ReturnValue, 0);
  EXPECT_EQ(R.DynInstrs, 30u); // The sum of Want.
}

TEST(Lowering, SiteOpsCountsOps) {
  SiteOps S;
  S.EntryOps = {{Opcode::ProfSet, 0}};
  S.EdgeOps[3] = {{Opcode::ProfAdd, 1}, {Opcode::ProfCountIdx, 0}};
  S.RetOps[2] = {{Opcode::ProfCountConst, 9}};
  EXPECT_EQ(S.numOps(), 4u);
}

} // namespace
