//===- trace/PathTiming.cpp - Per-path cost attribution --------------------===//

#include "trace/PathTiming.h"

#include "obs/Obs.h"

#include <algorithm>
#include <bit>

using namespace ppp;
using namespace ppp::trace;

void PathTimingProfile::record(FuncId F, int64_t Index, uint64_t Count,
                               uint64_t CostEach) {
  if (Count == 0)
    return;
  PathTimingEntry &E = Paths[PathKey{F, Index}];
  if (E.Count == 0 || CostEach < E.MinCost)
    E.MinCost = CostEach;
  if (CostEach > E.MaxCost)
    E.MaxCost = CostEach;
  E.Count += Count;
  E.TotalCost += Count * CostEach;
  E.Buckets[std::bit_width(CostEach)] += Count;

  FuncTiming &FT = Funcs[F];
  FT.Count += Count;
  FT.TotalCost += Count * CostEach;

  Attributed += Count * CostEach;
  Execs += Count;

  WindowCost[PathKey{F, Index}] += Count * CostEach;
  WindowExecs += Count;
  WindowCostSum += Count * CostEach;
  // Merged events are atomic: the window closes once its execution
  // budget is met or exceeded, never mid-event, so the report depends
  // only on the event stream (which is independent of PPP_JOBS).
  if (WindowExecs >= Opts.PhaseWindowExecs)
    closeWindow();
}

void PathTimingProfile::closeWindow() {
  PhaseWindow W;
  W.Execs = WindowExecs;
  W.Cost = WindowCostSum;

  // Top-K by window cost, ties broken toward the smaller key so the
  // hot set is a deterministic function of the window's contents.
  std::vector<std::pair<const PathKey *, uint64_t>> Ranked;
  Ranked.reserve(WindowCost.size());
  for (const auto &KV : WindowCost)
    Ranked.push_back({&KV.first, KV.second});
  std::sort(Ranked.begin(), Ranked.end(),
            [](const auto &A, const auto &B) {
              if (A.second != B.second)
                return A.second > B.second;
              return *A.first < *B.first;
            });
  size_t K = std::min<size_t>(Opts.PhaseTopK, Ranked.size());
  W.HotSet.reserve(K);
  for (size_t I = 0; I < K; ++I)
    W.HotSet.push_back(*Ranked[I].first);
  std::sort(W.HotSet.begin(), W.HotSet.end());

  if (Windows.empty()) {
    W.Similarity = 1.0;
  } else {
    // Jaccard over the (sorted) hot sets.
    const std::vector<PathKey> &P = Windows.back().HotSet;
    size_t Common = 0, IA = 0, IB = 0;
    while (IA < P.size() && IB < W.HotSet.size()) {
      if (P[IA] < W.HotSet[IB])
        ++IA;
      else if (W.HotSet[IB] < P[IA])
        ++IB;
      else {
        ++Common;
        ++IA;
        ++IB;
      }
    }
    size_t Union = P.size() + W.HotSet.size() - Common;
    W.Similarity = Union == 0 ? 1.0
                              : static_cast<double>(Common) /
                                    static_cast<double>(Union);
  }

  Windows.push_back(std::move(W));
  WindowCost.clear();
  WindowExecs = 0;
  WindowCostSum = 0;
}

void PathTimingProfile::finishPhases() {
  if (WindowExecs > 0)
    closeWindow();
}

std::vector<uint32_t> PathTimingProfile::phaseBoundaries() const {
  std::vector<uint32_t> B;
  for (size_t I = 1; I < Windows.size(); ++I)
    if (Windows[I].Similarity < Opts.PhaseThreshold)
      B.push_back(static_cast<uint32_t>(I));
  return B;
}

double PathTimingProfile::meanFunctionCost(FuncId F) const {
  auto It = Funcs.find(F);
  if (It == Funcs.end() || It->second.Count == 0)
    return 0.0;
  return static_cast<double>(It->second.TotalCost) /
         static_cast<double>(It->second.Count);
}

void PathTimingProfile::flushMetrics() const {
  obs::counter("trace.timing.paths").inc(Paths.size());
  obs::counter("trace.timing.executions").inc(Execs);
  obs::counter("trace.timing.total_cost").inc(Total);
  obs::counter("trace.timing.attributed_cost").inc(Attributed);
  obs::counter("trace.timing.unattributed_cost").inc(Unattributed);
  obs::counter("trace.timing.windows").inc(Windows.size());
  obs::counter("trace.timing.phase_boundaries")
      .inc(phaseBoundaries().size());
}
