//===- bench/table1_inlining.cpp - Table 1 reproduction ----------------------===//
///
/// Table 1: dynamic path characteristics with and without inlining and
/// unrolling -- dynamic paths, average branches and instructions per
/// path, % of dynamic calls inlined, average unroll factor (weighted by
/// dynamic loop iterations), and speedup of the expanded code.
///
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "Harness.h"

#include <cstdio>

using namespace ppp;
using namespace ppp::bench;

namespace {

struct PathStats {
  double DynPaths = 0;
  double AvgBranches = 0;
  double AvgInstrs = 0;
};

PathStats pathStats(const PathProfile &Profile) {
  PathStats S;
  uint64_t Freq = 0, Branches = 0, Instrs = 0;
  for (const FunctionPathProfile &F : Profile.Funcs) {
    for (const PathRecord &R : F.Paths) {
      Freq += R.Freq;
      Branches += R.Freq * R.Branches;
      Instrs += R.Freq * R.Instrs;
    }
  }
  S.DynPaths = static_cast<double>(Freq);
  if (Freq > 0) {
    S.AvgBranches = static_cast<double>(Branches) / static_cast<double>(Freq);
    S.AvgInstrs = static_cast<double>(Instrs) / static_cast<double>(Freq);
  }
  return S;
}

} // namespace

int ppp::bench::runTable1Inlining() {
  printf("Table 1: dynamic path characteristics with and without "
         "inlining and unrolling\n");
  printf("(paper Sec. 7.3; dynamic paths in thousands -- the synthetic "
         "suite runs ~1.5M instructions per benchmark)\n\n");
  printHeader("bench", {"dynP(k)", "brs", "instrs", "dynP'(k)", "brs'",
                        "instrs'", "%inl", "unroll", "speedup"});

  struct Avg {
    double V[9] = {0};
    int N = 0;
  } IntAvg, FpAvg, AllAvg;
  auto Accumulate = [](Avg &A, const std::vector<double> &Vals) {
    for (size_t I = 0; I < 9; ++I)
      A.V[I] += Vals[I];
    ++A.N;
  };
  auto PrintAvg = [](const char *Name, const Avg &A) {
    std::vector<double> Vals;
    for (double V : A.V)
      Vals.push_back(A.N == 0 ? 0 : V / A.N);
    printRow(Name, Vals);
  };

  struct Row {
    std::string Name;
    bool IsFp = false;
    std::vector<double> Vals;
  };
  std::vector<Row> Rows =
      runSuiteParallel(spec2000Suite(), [](const BenchmarkSpec &Spec) {
        PreparedBenchmark B = prepare(Spec);
        PathStats Orig = pathStats(B.OracleOrig);
        PathStats Exp = pathStats(B.Oracle);
        double Speedup = B.CostBase == 0
                             ? 1.0
                             : static_cast<double>(B.CostOrig) /
                                   static_cast<double>(B.CostBase);
        return Row{B.Name, B.IsFp,
                   {Orig.DynPaths / 1e3, Orig.AvgBranches, Orig.AvgInstrs,
                    Exp.DynPaths / 1e3, Exp.AvgBranches, Exp.AvgInstrs,
                    100.0 * B.Inline.dynFractionInlined(),
                    B.Unroll.avgDynUnrollFactor(), Speedup}};
      });

  for (const Row &R : Rows) {
    printRow(R.Name, R.Vals);
    Accumulate(R.IsFp ? FpAvg : IntAvg, R.Vals);
    Accumulate(AllAvg, R.Vals);
  }
  printf("\n");
  PrintAvg("INT-avg", IntAvg);
  PrintAvg("FP-avg", FpAvg);
  PrintAvg("ALL-avg", AllAvg);
  printf("\nExpected shape (paper): expanded code has fewer dynamic "
         "paths but more branches\nand instructions per path; inlining "
         "~45%% of calls; FP unroll factors >> INT.\n");
  return 0;
}
