//===- pathprof/Profilers.cpp - PP / TPP / PPP drivers ----------------------===//

#include "pathprof/Profilers.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace ppp;

ProfilerOptions ProfilerOptions::pp() {
  ProfilerOptions O;
  O.Name = "pp";
  return O;
}

ProfilerOptions ProfilerOptions::tpp() {
  ProfilerOptions O;
  O.Name = "tpp";
  O.LocalColdCriterion = true;
  O.ColdOnlyToAvoidHash = true;
  O.ObviousLoopDisconnect = true;
  O.SkipObviousRoutines = true;
  return O;
}

ProfilerOptions ProfilerOptions::tppChecked() {
  ProfilerOptions O = tpp();
  O.Name = "tpp-checked";
  O.Poison = PoisonStyle::Checked;
  return O;
}

ProfilerOptions ProfilerOptions::ppp() {
  ProfilerOptions O;
  O.Name = "ppp";
  O.SmartNumbering = true;
  O.LocalColdCriterion = true;
  O.GlobalColdCriterion = true;
  O.SelfAdjust = true;
  O.ObviousLoopDisconnect = true;
  O.SkipObviousRoutines = true;
  O.LowCoverageGate = true;
  O.Push = PushMode::IgnoreCold;
  return O;
}

ProfilerOptions ProfilerOptions::adaptive() {
  ProfilerOptions O = ppp();
  O.Name = "adaptive";
  O.SkipObviousRoutines = false;
  O.LowCoverageGate = false;
  return O;
}

ProfilerOptions ProfilerOptions::trace() {
  ProfilerOptions O = ppp();
  O.Name = "trace";
  O.TraceBackend = true;
  return O;
}

ProfilerOptions ProfilerOptions::traceTimed() {
  ProfilerOptions O = trace();
  O.Name = "trace+time";
  O.TraceTimestamps = true;
  return O;
}

const char *ppp::kDemoteReasonName(KDemoteReason R) {
  switch (R) {
  case KDemoteReason::None:
    return "none";
  case KDemoteReason::PathCountOverflow:
    return "path-count-overflow";
  case KDemoteReason::IdSpaceOverflow:
    return "id-space-overflow";
  case KDemoteReason::CheckedPoisoning:
    return "checked-poisoning";
  case KDemoteReason::TraceBackend:
    return "trace-backend";
  }
  return "<invalid>";
}

void FunctionPlan::buildEdgeIndex() {
  RealByCfg.clear();
  LoopEntryByBack.clear();
  LoopExitByBack.clear();
  FnExitByBlock.clear();
  FnEntryEdge = -1;
  for (const DagEdge &E : Dag->edges()) {
    switch (E.Kind) {
    case DagEdgeKind::Real:
      RealByCfg[E.CfgEdgeId] = E.Id;
      break;
    case DagEdgeKind::FnEntry:
      FnEntryEdge = E.Id;
      break;
    case DagEdgeKind::FnExit:
      FnExitByBlock[static_cast<BlockId>(E.Src)] = E.Id;
      break;
    case DagEdgeKind::LoopEntry:
      LoopEntryByBack[E.CfgEdgeId] = E.Id;
      break;
    case DagEdgeKind::LoopExit:
      LoopExitByBack[E.CfgEdgeId] = E.Id;
      break;
    }
  }
}

std::optional<uint64_t> FunctionPlan::pathNumberOf(const PathKey &Key) const {
  if (!Instrumented || !Dag)
    return std::nullopt;
  uint64_t Sum = 0;
  auto Take = [&](int DagEdgeId) -> const DagEdge * {
    if (DagEdgeId < 0)
      return nullptr;
    const DagEdge &E = Dag->edge(DagEdgeId);
    if (E.Cold)
      return nullptr;
    Sum += E.Val;
    return &E;
  };

  // Starting dummy edge.
  int StartId = -1;
  if (Key.StartCfgEdgeId == -1) {
    StartId = FnEntryEdge;
  } else if (auto It = LoopEntryByBack.find(Key.StartCfgEdgeId);
             It != LoopEntryByBack.end()) {
    StartId = It->second;
  }
  const DagEdge *E = Take(StartId);
  if (!E || E->Dst != Key.First)
    return std::nullopt;
  int Cur = E->Dst;

  // Interior real edges.
  for (int CfgId : Key.EdgeIds) {
    auto It = RealByCfg.find(CfgId);
    if (It == RealByCfg.end())
      return std::nullopt;
    E = Take(It->second);
    if (!E || E->Src != Cur)
      return std::nullopt;
    Cur = E->Dst;
  }

  // Terminal edge.
  int TermId = -1;
  if (Key.TermCfgEdgeId == -1) {
    auto It = FnExitByBlock.find(static_cast<BlockId>(Cur));
    if (It != FnExitByBlock.end())
      TermId = It->second;
  } else if (auto It = LoopExitByBack.find(Key.TermCfgEdgeId);
             It != LoopExitByBack.end()) {
    TermId = It->second;
  }
  E = Take(TermId);
  if (!E || E->Src != Cur)
    return std::nullopt;
  assert(Sum < NumPaths && "path number out of range");
  return Sum;
}

std::optional<PathKey> FunctionPlan::decodePath(uint64_t Number) const {
  if (!Instrumented || !Dag || Number >= NumPaths)
    return std::nullopt;
  PathKey Key;
  uint64_t Rem = Number;
  int V = Dag->entryNode();
  bool FirstEdge = true;
  while (V != Dag->exitNode()) {
    // Pick the out-edge whose [Val, Val + PathsFrom(dst)) interval
    // contains Rem: the non-cold edge with the largest Val <= Rem.
    const DagEdge *Best = nullptr;
    for (int EId : Dag->outEdges(V)) {
      const DagEdge &E = Dag->edge(EId);
      if (E.Cold ||
          Numbering.PathsFrom[static_cast<size_t>(E.Dst)] == 0)
        continue;
      if (E.Val > Rem)
        continue;
      if (!Best || E.Val > Best->Val)
        Best = &E;
    }
    if (!Best)
      return std::nullopt; // Should not happen for in-range numbers.
    Rem -= Best->Val;
    if (FirstEdge) {
      Key.First = Best->Dst;
      Key.StartCfgEdgeId =
          Best->Kind == DagEdgeKind::LoopEntry ? Best->CfgEdgeId : -1;
      FirstEdge = false;
    } else if (Best->Dst == Dag->exitNode()) {
      Key.TermCfgEdgeId =
          Best->Kind == DagEdgeKind::LoopExit ? Best->CfgEdgeId : -1;
    } else {
      Key.EdgeIds.push_back(Best->CfgEdgeId);
    }
    V = Best->Dst;
  }
  assert(Rem == 0 && "leftover path number after decoding");
  return Key;
}

std::optional<std::vector<PathKey>>
FunctionPlan::decodeKPath(int64_t Id) const {
  if (!chained() || Id < 1 || Id >= IdBound)
    return std::nullopt;

  // Peel the base-M digits least-significant first. Every flushed
  // segment contributed a digit in [1, M-1], so a zero digit anywhere
  // (leading zeros vanish in the peel, making digit count == segment
  // count) marks an id no valid chain can produce.
  uint64_t Rem = static_cast<uint64_t>(Id);
  uint64_t M = static_cast<uint64_t>(ChainMult);
  std::vector<uint64_t> Digits;
  while (Rem != 0) {
    Digits.push_back(Rem % M);
    Rem /= M;
  }
  std::reverse(Digits.begin(), Digits.end());
  if (Digits.size() > KEffective)
    return std::nullopt;

  std::vector<PathKey> Segs;
  Segs.reserve(Digits.size());
  for (uint64_t D : Digits) {
    if (D == 0)
      return std::nullopt;
    uint64_t Seg = D - 1;
    // Digits beyond the numbered space are poison (a cold edge wrote
    // the free-poison region [N, 3N) or counted the cold constant N).
    if (Seg >= NumPaths)
      return std::nullopt;
    std::optional<PathKey> Key = decodePath(Seg);
    if (!Key)
      return std::nullopt;
    Segs.push_back(std::move(*Key));
  }

  // Structural chaining: segment i must end on the back edge segment
  // i+1 re-enters through; only the last segment may end at a Ret, and
  // a chain shorter than KEffective can only have been cut by a Ret.
  for (size_t I = 0; I < Segs.size(); ++I) {
    bool Last = I + 1 == Segs.size();
    if (!Last) {
      if (Segs[I].TermCfgEdgeId == -1 ||
          Segs[I + 1].StartCfgEdgeId != Segs[I].TermCfgEdgeId)
        return std::nullopt;
    } else if (Segs[I].TermCfgEdgeId != -1 && Segs.size() < KEffective) {
      return std::nullopt;
    }
  }
  return Segs;
}

std::string ppp::validateProfilerOptions(const ProfilerOptions &O) {
  auto BadFraction = [](double V) { return !(V >= 0.0 && V <= 1.0); };
  if (BadFraction(O.LocalColdFraction))
    return formatString("LocalColdFraction must be in [0, 1] (got %g)",
                        O.LocalColdFraction);
  if (BadFraction(O.GlobalColdFraction))
    return formatString("GlobalColdFraction must be in [0, 1] (got %g)",
                        O.GlobalColdFraction);
  if (BadFraction(O.CoverageThreshold))
    return formatString("CoverageThreshold must be in [0, 1] (got %g)",
                        O.CoverageThreshold);
  if (O.SelfAdjustMaxIters < 1)
    return formatString("SelfAdjustMaxIters must be >= 1 (got %u)",
                        O.SelfAdjustMaxIters);
  if (O.HashThreshold < 1)
    return formatString("HashThreshold must be >= 1 (got %llu)",
                        (unsigned long long)O.HashThreshold);
  if (O.KIterations < 1)
    return formatString("KIterations must be >= 1 (got %llu)",
                        (unsigned long long)O.KIterations);
  if (O.KIterations > ProfilerOptions::MaxKIterations)
    return formatString("KIterations must be <= %llu (got %llu)",
                        (unsigned long long)ProfilerOptions::MaxKIterations,
                        (unsigned long long)O.KIterations);
  if (O.SelfAdjust && !(O.SelfAdjustFactor > 1.0))
    return formatString("SelfAdjustFactor must be > 1 when SelfAdjust is "
                        "enabled (got %g)",
                        O.SelfAdjustFactor);
  return "";
}

// instrumentModule() lives in pass/Instrument.cpp: the pipeline is five
// stage passes over a ModulePassManager, and its analyses come from a
// FunctionAnalysisManager.

ProfileRuntime InstrumentationResult::makeRuntime() const {
  ProfileRuntime RT(static_cast<unsigned>(Plans.size()));
  for (size_t I = 0; I < Plans.size(); ++I) {
    const FunctionPlan &P = Plans[I];
    if (!P.Instrumented)
      continue;
    if (P.TableKind == PathTable::Kind::Hash)
      RT.setTable(static_cast<FuncId>(I), PathTable::makeHash());
    else
      RT.setTable(static_cast<FuncId>(I),
                  PathTable::makeArray(static_cast<uint64_t>(P.ArraySize)));
    if (P.KEffective > 1)
      RT.setChain(static_cast<FuncId>(I),
                  {P.ChainMult, static_cast<uint32_t>(P.KEffective)});
  }
  return RT;
}

std::vector<std::vector<int64_t>>
InstrumentationResult::blockFreqs(const EdgeProfile &CleanEP) const {
  std::vector<std::vector<int64_t>> Out;
  for (size_t I = 0; I < Plans.size(); ++I)
    Out.push_back(loweredBlockFreqs(*Plans[I].Cfg, Plans[I].Sites,
                                    CleanEP.Funcs[I]));
  return Out;
}

CountsMessage
ppp::countsFromRun(const std::string &Benchmark,
                   [[maybe_unused]] const InstrumentationResult &IR,
                   const ProfileRuntime &RT, const EdgeProfile *EP) {
  assert(IR.Plans.size() == RT.numFunctions() &&
         "runtime was not built from this instrumentation result");
  CountsMessage M;
  M.Benchmark = Benchmark;
  unsigned NumFuncs = RT.numFunctions();
  for (unsigned F = 0; F < NumFuncs; ++F) {
    FunctionCounts FC;
    FC.Func = F;
    FC.PathCounts = RT.collectCounts(static_cast<FuncId>(F));
    const PathTable &T = RT.table(static_cast<FuncId>(F));
    FC.Lost = T.lostCount();
    FC.Cold = T.coldCheckedCount();
    FC.Invalid = T.invalidCount();
    if (EP && F < EP->Funcs.size()) {
      const FunctionEdgeProfile &FEP = EP->Funcs[F];
      for (size_t E = 0; E < FEP.EdgeFreq.size(); ++E)
        if (FEP.EdgeFreq[E] > 0)
          FC.EdgeCounts.emplace_back(static_cast<uint32_t>(E),
                                     static_cast<uint64_t>(FEP.EdgeFreq[E]));
    }
    M.Funcs.push_back(std::move(FC));
  }
  canonicalizeCounts(M);
  return M;
}
