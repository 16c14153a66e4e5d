//===- pathprof/Lowering.cpp - Materializing instrumentation ----------------===//

#include "pathprof/Lowering.h"

#include <cassert>

using namespace ppp;

uint64_t SiteOps::numOps() const {
  uint64_t N = EntryOps.size();
  for (const auto &[Id, Ops] : EdgeOps)
    N += Ops.size();
  for (const auto &[B, Ops] : RetOps)
    N += Ops.size();
  return N;
}

namespace {

/// Which count opcode family a site uses: plain counting, a chain step
/// (back edge: fold into the accumulator or flush on depth exhaustion),
/// or a chain flush (Ret).
enum class CountForm : uint8_t { Plain, ChainStep, ChainRet };

void appendOps(std::vector<ProfOp> &Out, const EdgeOps &O,
               CountForm Form = CountForm::Plain) {
  if (O.HasSet)
    Out.push_back({Opcode::ProfSet, O.SetVal});
  if (O.HasAdd)
    Out.push_back({Opcode::ProfAdd, O.AddVal});
  if (O.Count == EdgeOps::CountKind::Indexed) {
    assert((Form == CountForm::Plain || !O.CountChecked) &&
           "checked counts never chain; plans demote to k=1 first");
    Opcode Op = Form == CountForm::ChainStep  ? Opcode::ProfChainIdx
                : Form == CountForm::ChainRet ? Opcode::ProfChainRetIdx
                : O.CountChecked              ? Opcode::ProfCheckedCountIdx
                                              : Opcode::ProfCountIdx;
    Out.push_back({Op, O.CountVal});
  } else if (O.Count == EdgeOps::CountKind::Const) {
    Opcode Op = Form == CountForm::ChainStep  ? Opcode::ProfChainConst
                : Form == CountForm::ChainRet ? Opcode::ProfChainRetConst
                                              : Opcode::ProfCountConst;
    Out.push_back({Op, O.CountVal});
  }
}

/// Where a real edge's ops go: on the source (its only successor), on
/// the target (its only predecessor, never block 0), or in a new block.
enum class EdgeSite : uint8_t { Source, Target, Split };

EdgeSite edgeSite(const CfgView &Cfg, int EdgeId) {
  const CfgEdge &E = Cfg.edge(EdgeId);
  if (Cfg.outEdges(E.Src).size() == 1)
    return EdgeSite::Source;
  if (E.Dst != 0 && Cfg.inEdges(E.Dst).size() == 1)
    return EdgeSite::Target;
  return EdgeSite::Split;
}

/// Entry ops on a loop-header entry block need an invocation stub.
bool needsEntryStub(const CfgView &Cfg, const SiteOps &Sites) {
  return !Sites.EntryOps.empty() && !Cfg.inEdges(0).empty();
}

Instr makeInstr(const ProfOp &P) {
  Instr I;
  I.Op = P.Op;
  I.Imm = P.Imm;
  return I;
}

} // namespace

SiteOps ppp::finalizeSites(const BLDag &Dag, const PlacementResult &Placement,
                           bool Chained) {
  SiteOps S;
  // Back edges need LoopExit ops before LoopEntry ops; gather per back
  // edge first.
  std::map<int, EdgeOps> BackExit, BackEntry;

  for (const DagEdge &E : Dag.edges()) {
    const EdgeOps &O = Placement.Ops[static_cast<size_t>(E.Id)];
    if (O.empty())
      continue;
    switch (E.Kind) {
    case DagEdgeKind::FnEntry:
      assert((!Chained || O.Count == EdgeOps::CountKind::None) &&
             "chained counts must stay pinned on dummy exit edges");
      appendOps(S.EntryOps, O);
      break;
    case DagEdgeKind::Real:
      assert((!Chained || O.Count == EdgeOps::CountKind::None) &&
             "chained counts must stay pinned on dummy exit edges");
      appendOps(S.EdgeOps[E.CfgEdgeId], O);
      break;
    case DagEdgeKind::FnExit:
      appendOps(S.RetOps[static_cast<BlockId>(E.Src)], O,
                Chained ? CountForm::ChainRet : CountForm::Plain);
      break;
    case DagEdgeKind::LoopExit:
      BackExit[E.CfgEdgeId] = O;
      break;
    case DagEdgeKind::LoopEntry:
      BackEntry[E.CfgEdgeId] = O;
      break;
    }
  }

  for (const auto &[BackId, O] : BackExit)
    appendOps(S.EdgeOps[BackId], O,
              Chained ? CountForm::ChainStep : CountForm::Plain);
  for (const auto &[BackId, O] : BackEntry)
    appendOps(S.EdgeOps[BackId], O);
  return S;
}

uint64_t ppp::lowerInstrumentation(Function &F, const CfgView &OrigCfg,
                                   const SiteOps &Sites) {
  uint64_t Added = 0;
  auto InsertBeforeTerminator = [&](BlockId B,
                                    const std::vector<ProfOp> &Ops) {
    BasicBlock &BB = F.block(B);
    assert(!BB.Instrs.empty());
    auto Pos = BB.Instrs.end() - 1;
    for (const ProfOp &P : Ops) {
      Pos = BB.Instrs.insert(Pos, makeInstr(P));
      ++Pos;
    }
    Added += Ops.size();
  };
  auto InsertAtTop = [&](BlockId B, const std::vector<ProfOp> &Ops) {
    BasicBlock &BB = F.block(B);
    BB.Instrs.insert(BB.Instrs.begin(), Ops.size(), Instr());
    for (size_t I = 0; I < Ops.size(); ++I)
      BB.Instrs[I] = makeInstr(Ops[I]);
    Added += Ops.size();
  };

  // --- Edge ops (sites decided against the original CFG; splits only
  // append blocks, so ids stay stable). ---
  for (const auto &[EdgeId, Ops] : Sites.EdgeOps) {
    if (Ops.empty())
      continue;
    const CfgEdge &E = OrigCfg.edge(EdgeId);
    EdgeSite Site = edgeSite(OrigCfg, EdgeId);
    if (Site == EdgeSite::Source) {
      InsertBeforeTerminator(E.Src, Ops);
      continue;
    }
    if (Site == EdgeSite::Target) {
      InsertAtTop(E.Dst, Ops);
      continue;
    }
    // Split the (critical) edge with a fresh block.
    BlockId NewId = static_cast<BlockId>(F.Blocks.size());
    F.Blocks.emplace_back();
    BasicBlock &NB = F.Blocks.back();
    for (const ProfOp &P : Ops)
      NB.Instrs.push_back(makeInstr(P));
    Instr Jump;
    Jump.Op = Opcode::Br;
    Jump.Targets = {E.Dst};
    NB.Instrs.push_back(std::move(Jump));
    F.block(E.Src).terminator().Targets[E.SuccIdx] = NewId;
    Added += Ops.size() + 1;
  }

  // --- Ret ops. ---
  for (const auto &[B, Ops] : Sites.RetOps)
    InsertBeforeTerminator(B, Ops);

  // --- Entry ops: once per invocation. If the entry block has
  // predecessors (it is a loop header), divert its body into a fresh
  // block and leave block 0 as a pure invocation stub. ---
  if (!Sites.EntryOps.empty()) {
    if (!needsEntryStub(OrigCfg, Sites)) {
      InsertAtTop(0, Sites.EntryOps);
    } else {
      BlockId BodyId = static_cast<BlockId>(F.Blocks.size());
      F.Blocks.emplace_back();
      std::swap(F.Blocks[static_cast<size_t>(BodyId)].Instrs,
                F.Blocks[0].Instrs);
      for (const ProfOp &P : Sites.EntryOps)
        F.Blocks[0].Instrs.push_back(makeInstr(P));
      Instr Jump;
      Jump.Op = Opcode::Br;
      Jump.Targets = {BodyId};
      F.Blocks[0].Instrs.push_back(std::move(Jump));
      // Every jump that targeted block 0 (back edges, splits) now means
      // the relocated body.
      for (size_t BI = 1; BI < F.Blocks.size(); ++BI) {
        Instr &T = F.Blocks[BI].terminator();
        for (BlockId &Tgt : T.Targets)
          if (Tgt == 0)
            Tgt = BodyId;
      }
      Added += Sites.EntryOps.size() + 1;
    }
  }
  return Added;
}

std::vector<int64_t> ppp::loweredBlockFreqs(const CfgView &OrigCfg,
                                            const SiteOps &Sites,
                                            const FunctionEdgeProfile &EP) {
  std::vector<int64_t> Freq;
  for (BlockId B = 0; B < static_cast<BlockId>(OrigCfg.numBlocks()); ++B)
    Freq.push_back(EP.blockFreq(OrigCfg, B));
  // Splits are appended in lowerInstrumentation()'s EdgeOps order.
  for (const auto &[EdgeId, Ops] : Sites.EdgeOps)
    if (!Ops.empty() && edgeSite(OrigCfg, EdgeId) == EdgeSite::Split)
      Freq.push_back(EP.EdgeFreq[static_cast<size_t>(EdgeId)]);
  if (needsEntryStub(OrigCfg, Sites)) {
    Freq.push_back(Freq[0]);
    Freq[0] = EP.Invocations;
  }
  return Freq;
}
