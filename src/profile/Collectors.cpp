//===- profile/Collectors.cpp - Execution-observer profilers ---------------===//

#include "profile/Collectors.h"

#include "obs/Obs.h"

using namespace ppp;

CleanProfile ppp::profileClean(const Module &M, const InterpOptions &IO) {
  CleanProfile Out;
  EdgeProfiler EdgeObs(M);
  PathTracer PathObs(M);
  Interpreter I(M, IO);
  I.addObserver(&EdgeObs);
  I.addObserver(&PathObs);
  Out.Res = I.run();
  Out.EP = EdgeObs.takeProfile();
  Out.Oracle = PathObs.takeProfile();
  if (obs::interpStatsEnabled() && !Out.Res.FuelExhausted)
    recordOpCounts(deriveOpCounts(M, blockFreqs(M, Out.EP)));
  return Out;
}

std::vector<std::vector<int64_t>> ppp::blockFreqs(const Module &M,
                                                  const EdgeProfile &EP) {
  std::vector<std::vector<int64_t>> Out(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    CfgView Cfg(M.function(static_cast<FuncId>(F)));
    for (BlockId B = 0; B < static_cast<BlockId>(Cfg.numBlocks()); ++B)
      Out[F].push_back(EP.Funcs[F].blockFreq(Cfg, B));
  }
  return Out;
}

EdgeProfiler::EdgeProfiler(const Module &M) {
  Views.reserve(M.numFunctions());
  Profile.Funcs.resize(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    Views.emplace_back(M.function(static_cast<FuncId>(F)));
    Profile.Funcs[F].EdgeFreq.assign(Views.back().numEdges(), 0);
  }
}

void EdgeProfiler::onFunctionEnter(FuncId F) {
  ++Profile.Funcs[static_cast<size_t>(F)].Invocations;
}

void EdgeProfiler::onEdge(FuncId F, BlockId Src, unsigned SuccIdx) {
  const CfgView &V = Views[static_cast<size_t>(F)];
  ++Profile.Funcs[static_cast<size_t>(F)]
        .EdgeFreq[static_cast<size_t>(V.edgeIdFor(Src, SuccIdx))];
}

PathTracer::PathTracer(const Module &M) : Profile(M.numFunctions()) {
  Views.reserve(M.numFunctions());
  Loops.reserve(M.numFunctions());
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    Views.emplace_back(M.function(static_cast<FuncId>(F)));
    Loops.push_back(LoopInfo::compute(Views.back()));
  }
}

void PathTracer::onFunctionEnter(FuncId F) {
  TraceFrame Fr;
  Fr.F = F;
  Fr.Current.First = 0;
  Stack.push_back(std::move(Fr));
}

void PathTracer::onFunctionExit(FuncId F) {
  TraceFrame &Fr = Stack.back();
  assert(Fr.F == F && "tracer stack out of sync");
  Fr.Current.TermCfgEdgeId = -1;
  Profile.Funcs[static_cast<size_t>(F)].add(Views[static_cast<size_t>(F)],
                                            Fr.Current, 1);
  Stack.pop_back();
}

void PathTracer::onEdge(FuncId F, BlockId Src, unsigned SuccIdx) {
  TraceFrame &Fr = Stack.back();
  assert(Fr.F == F && "tracer stack out of sync");
  const CfgView &V = Views[static_cast<size_t>(F)];
  int EdgeId = V.edgeIdFor(Src, SuccIdx);
  if (Loops[static_cast<size_t>(F)].isBackEdge(EdgeId)) {
    // Back edge: the current path ends here; a new one starts at the
    // loop header.
    Fr.Current.TermCfgEdgeId = EdgeId;
    Profile.Funcs[static_cast<size_t>(F)].add(V, Fr.Current, 1);
    Fr.Current.First = V.edge(EdgeId).Dst;
    Fr.Current.StartCfgEdgeId = EdgeId;
    Fr.Current.EdgeIds.clear();
    Fr.Current.TermCfgEdgeId = -1;
  } else {
    Fr.Current.EdgeIds.push_back(EdgeId);
  }
}
