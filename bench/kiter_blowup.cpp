//===- bench/kiter_blowup.cpp - k-iteration path-space blowup -----------------===//
///
/// The tentpole question ROADMAP poses for k-iteration profiling: how
/// much does PPP's inexpensive-path removal tame the multiplicative
/// path-space blowup of chaining across back edges? For each depth
/// k in {1, 2, 4} the suite is profiled with plain PP (no cold-path
/// elimination), TPP and PPP. The first table per k reports PP's and
/// PPP's k-expanded id spaces enumerated, lost-path fraction (hash
/// conflicts as a share of retained counting ops) and overhead, with
/// the chained and demoted function counts of both. The second reports
/// what chaining does to the profile: TPP's and PPP's accuracy
/// (fig9's metric) and coverage (fig10's), and TPP's overhead
/// (fig12's standard-model column). The k = 1 cells are the figures'
/// own runs, read from the shared suite table. Other depths, and
/// fig11's array/hash split at any k, are one
/// `ppp_cli run <bench> --profiler='<preset>;+kiter<k>'` away.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "pass/AnalysisManager.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

constexpr uint64_t Depths[] = {1, 2, 4};
static_assert(Depths[0] == 1, "depth 1 is the shared suite table's");
constexpr size_t NumDepths = sizeof(Depths) / sizeof(Depths[0]);
enum { Pp, Tpp, Ppp, NumProfs };

/// One (benchmark, k, profiler) measurement.
struct Cell {
  double Paths = 0;        ///< Valid ids enumerated (k-expanded).
  uint64_t ChainedFns = 0; ///< Functions counting chained ids.
  uint64_t DemotedFns = 0; ///< Functions demoted to k = 1 (any reason).
  uint64_t Stored = 0;     ///< Counting ops the tables retained.
  uint64_t Lost = 0;       ///< Hash-conflict drops.
  double OverheadPct = 0;
  double AccuracyPct = 0;  ///< Hot path flow predicted (fig9).
  double CoveragePct = 0;  ///< Path profile measured (fig10).
};

struct BenchRow {
  std::string Name;
  Cell Cells[NumDepths][NumProfs];
};

Cell cellOf(const ProfilerOutcome &Out) {
  Cell C;
  C.OverheadPct = Out.OverheadPct;
  C.AccuracyPct = 100.0 * Out.Acc.Accuracy;
  C.CoveragePct = 100.0 * Out.Cov.Coverage;
  for (const FunctionPlan &Plan : Out.IR->Plans) {
    if (!Plan.Instrumented)
      continue;
    C.Paths += static_cast<double>(Plan.chained() ? Plan.NumKPaths
                                                  : Plan.NumPaths);
    C.ChainedFns += Plan.chained() ? 1 : 0;
    C.DemotedFns += Plan.KDemote != KDemoteReason::None ? 1 : 0;
  }
  for (uint64_t S : Out.Run.FuncStored)
    C.Stored += S;
  C.Lost = Out.Run.LostCounts;
  return C;
}

/// Depth 1 is the shared table's pp/tpp/ppp; deeper chains run here.
BenchRow measureBenchmark(const SuiteResult &R) {
  BenchRow Row;
  Row.Name = R.Spec.Name;
  Row.Cells[0][Pp] = cellOf(R.Pp);
  Row.Cells[0][Tpp] = cellOf(R.Tpp);
  Row.Cells[0][Ppp] = cellOf(R.Ppp);
  const PreparedBenchmark &B = *R.Prepared;
  FunctionAnalysisManager FAM(B.Expanded, &B.EP);
  for (size_t D = 1; D < NumDepths; ++D) {
    size_t P = 0;
    for (const ProfilerOptions &Base :
         {ProfilerOptions::pp(), ProfilerOptions::tpp(),
          ProfilerOptions::ppp()})
      Row.Cells[D][P++] =
          cellOf(runProfiler(B, atKIterations(Base, Depths[D]), &FAM));
  }
  return Row;
}

double lostFraction(const Cell &C) {
  uint64_t Total = C.Stored + C.Lost;
  return Total ? static_cast<double>(C.Lost) / static_cast<double>(Total)
               : 0;
}

void printDepthHeader(size_t D) {
  printf("\n-- k = %llu --\n\n", (unsigned long long)Depths[D]);
}

/// PP's and PPP's id spaces, lost fractions and overheads at depth D.
void printBlowupTable(const std::vector<BenchRow> &Rows, size_t D) {
  printDepthHeader(D);
  printf("%-10s%12s%10s%10s%12s%10s%10s%10s%10s\n", "bench", "pp-paths",
         "pp-lost%", "pp-ovh%", "ppp-paths", "ppp-lost%", "ppp-ovh%",
         "chained", "demoted");
  double Sum[6] = {0};
  uint64_t ChainedSum = 0, DemotedSum = 0;
  for (const BenchRow &R : Rows) {
    const Cell &P = R.Cells[D][Pp];
    const Cell &Q = R.Cells[D][Ppp];
    printf("%-10s%12.3g%10.2f%10.2f%12.3g%10.2f%10.2f%10llu%10llu\n",
           R.Name.c_str(), P.Paths, 100.0 * lostFraction(P), P.OverheadPct,
           Q.Paths, 100.0 * lostFraction(Q), Q.OverheadPct,
           (unsigned long long)(P.ChainedFns + Q.ChainedFns),
           (unsigned long long)(P.DemotedFns + Q.DemotedFns));
    Sum[0] += P.Paths;
    Sum[1] += 100.0 * lostFraction(P);
    Sum[2] += P.OverheadPct;
    Sum[3] += Q.Paths;
    Sum[4] += 100.0 * lostFraction(Q);
    Sum[5] += Q.OverheadPct;
    ChainedSum += P.ChainedFns + Q.ChainedFns;
    DemotedSum += P.DemotedFns + Q.DemotedFns;
  }
  size_t N = Rows.empty() ? 1 : Rows.size();
  printf("\n%-10s%12.3g%10.2f%10.2f%12.3g%10.2f%10.2f%10llu%10llu\n",
         "average", Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N,
         Sum[4] / N, Sum[5] / N, (unsigned long long)ChainedSum,
         (unsigned long long)DemotedSum);
}

/// TPP's and PPP's accuracy and coverage, and TPP's overhead, at depth D.
void printProfileTable(const std::vector<BenchRow> &Rows, size_t D) {
  printDepthHeader(D);
  printHeader("bench", {"tpp-acc", "ppp-acc", "tpp-cov", "ppp-cov",
                        "tpp-ovh%"});
  const char *RowFmt = "%-10s%10.1f%10.1f%10.1f%10.1f%10.2f\n";
  double Sum[5] = {0};
  for (const BenchRow &R : Rows) {
    const Cell &T = R.Cells[D][Tpp];
    const Cell &Q = R.Cells[D][Ppp];
    double Vals[5] = {T.AccuracyPct, Q.AccuracyPct, T.CoveragePct,
                      Q.CoveragePct, T.OverheadPct};
    printf(RowFmt, R.Name.c_str(), Vals[0], Vals[1], Vals[2], Vals[3],
           Vals[4]);
    for (int I = 0; I < 5; ++I)
      Sum[I] += Vals[I];
  }
  size_t N = Rows.empty() ? 1 : Rows.size();
  printf("\n");
  printf(RowFmt, "average", Sum[0] / N, Sum[1] / N, Sum[2] / N, Sum[3] / N,
         Sum[4] / N);
}

} // namespace

int ppp::bench::runKiterBlowup() {
  std::vector<BenchRow> Rows = runOverSuite(measureBenchmark);

  printf("k-iteration blowup: paths enumerated / lost fraction / "
         "overhead, PP vs PPP at k = 1, 2, 4\n");
  for (size_t D = 0; D < NumDepths; ++D)
    printBlowupTable(Rows, D);
  printf("\nk-iteration profile quality: accuracy / coverage, TPP vs PPP, "
         "and TPP overhead, percent\n");
  for (size_t D = 0; D < NumDepths; ++D)
    printProfileTable(Rows, D);
  printf("\nExpected shape: the k-expanded space grows multiplicatively "
         "with k for PP while\nPPP's cold-path elimination prunes most "
         "of the blowup; lost fraction rises with\nk only where hashing "
         "kicks in, and overflow demotions stay rare and recorded.\n"
         "TPP's accuracy holds at every k; PPP's falls, because its "
         "self-adjustment\n(Sec. 4.3) targets the k-expanded path count "
         "and declares ever hotter edges\ncold to keep chained routines "
         "out of the hash table (EXPERIMENTS.md).\n");
  return 0;
}
