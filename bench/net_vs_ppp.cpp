//===- bench/net_vs_ppp.cpp - NET trace selection vs PPP -----------------------===//
///
/// Section 2's claim, measured: Dynamo's NET commits to a single tail
/// per hot loop head, which works when one path dominates but "cannot
/// distinguish between the cases of a few dominant hot paths and many
/// warm paths" -- whereas PPP's profile covers the warm variety.
///
/// Columns: fraction of hot-path flow (hot = 0.125%) whose exact path
/// NET's selected traces cover; the same for PPP's estimated profile
/// restricted to the |NET| hottest entries (like-for-like budget); and
/// PPP's full Fig. 9 accuracy. Plus the number of traces NET selected.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "interp/Interpreter.h"
#include "profile/Net.h"

#include <algorithm>
#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// Flow of actual hot paths whose key appears in \p Chosen.
double hotFlowCovered(const PathProfile &Oracle, const PathProfile &Chosen,
                      double HotFraction) {
  std::vector<PathRef> Hot =
      selectHotPaths(Oracle, FlowMetric::Branch, HotFraction);
  uint64_t HotFlow = 0, Covered = 0;
  for (const PathRef &P : Hot) {
    const PathRecord &Rec =
        Oracle.Funcs[static_cast<size_t>(P.Func)].Paths[P.Index];
    HotFlow += Rec.flow(FlowMetric::Branch);
    if (Chosen.Funcs[static_cast<size_t>(P.Func)].find(Rec.Key))
      Covered += Rec.flow(FlowMetric::Branch);
  }
  return HotFlow == 0 ? 1.0
                      : static_cast<double>(Covered) /
                            static_cast<double>(HotFlow);
}

/// The K hottest entries of \p Estimated, as a membership profile.
PathProfile topK(const PathProfile &Estimated, size_t K) {
  struct Entry {
    FuncId F;
    const PathRecord *R;
  };
  std::vector<Entry> All;
  for (size_t F = 0; F < Estimated.Funcs.size(); ++F)
    for (const PathRecord &R : Estimated.Funcs[F].Paths)
      All.push_back({static_cast<FuncId>(F), &R});
  std::sort(All.begin(), All.end(), [](const Entry &A, const Entry &B) {
    return A.R->flow(FlowMetric::Branch) > B.R->flow(FlowMetric::Branch);
  });
  if (All.size() > K)
    All.resize(K);
  PathProfile Out(static_cast<unsigned>(Estimated.Funcs.size()));
  // Attribute requires a CfgView; reuse keys with frequency 1 by
  // constructing records directly.
  for (const Entry &E : All) {
    PathRecord R = *E.R;
    R.Freq = 1;
    Out.Funcs[static_cast<size_t>(E.F)].Index.emplace(
        R.Key, Out.Funcs[static_cast<size_t>(E.F)].Paths.size());
    Out.Funcs[static_cast<size_t>(E.F)].Paths.push_back(std::move(R));
  }
  return Out;
}

} // namespace

int ppp::bench::runNetVsPpp() {
  printf("NET trace selection vs PPP: percent of hot path flow whose "
         "path is covered\n\n");
  printHeader("bench", {"net", "ppp@|net|", "ppp-full", "traces"});

  struct Row {
    std::string Name;
    double Vals[4] = {0, 0, 0, 0};
  };
  std::vector<Row> Rows = runOverSuite([](const SuiteResult &S) {
    const PreparedBenchmark &B = *S.Prepared;

    // Run NET as an observer over the expanded program.
    NetSelector Net(B.Expanded);
    Interpreter I(B.Expanded);
    I.addObserver(&Net);
    I.run();
    size_t NetTraces = Net.selected().distinctPaths();
    double NetCov =
        hotFlowCovered(B.Oracle, Net.selected(), DefaultHotFraction);

    PathProfile PppTop = topK(S.Ppp.Run.Estimated, NetTraces);
    double PppBudgeted = hotFlowCovered(B.Oracle, PppTop, DefaultHotFraction);

    return Row{S.Spec.Name,
               {100.0 * NetCov, 100.0 * PppBudgeted,
                100.0 * S.Ppp.Acc.Accuracy, static_cast<double>(NetTraces)}};
  });

  double Sum[3] = {0, 0, 0};
  int N = 0;
  for (const Row &R : Rows) {
    printRow(R.Name, {R.Vals[0], R.Vals[1], R.Vals[2], R.Vals[3]},
             "%10.1f");
    for (int I = 0; I < 3; ++I)
      Sum[I] += R.Vals[I];
    ++N;
  }
  printf("\n");
  printRow("average", {Sum[0] / N, Sum[1] / N, Sum[2] / N, 0.0}, "%10.1f");
  printf("\nExpected shape: NET covers the dominant paths but misses "
         "warm variety (worst on\nthe parser/twolf-like benchmarks); "
         "PPP at the same trace budget covers more, and\nits full "
         "profile nearly everything -- the Sec. 2 argument for wider "
         "coverage.\n");
  return 0;
}
