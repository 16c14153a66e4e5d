//===- tools/ppp_cli.cpp - Command-line driver ---------------------------------===//
///
/// A small CLI over the experiment harness, for poking at the system
/// without writing C++:
///
///   ppp_cli list
///       The benchmark suite with its recipe classes.
///   ppp_cli run <bench> [--profiler=<spec>] [--no-expand] [--paths=N]
///                       [--seed=S]
///       <spec> is any profiler spec parseProfilerSpec accepts, from a
///       preset (pp, tpp, tpp-checked, ppp, trace, trace+time) to one
///       with technique toggles, e.g. "ppp;+kiter2" or "tpp;+sac".
///       Prepares <bench> the way every experiment does (bench::prepare),
///       profiles it with bench::runProfiler, and prints metrics plus
///       the hottest measured paths. --no-expand profiles the original
///       code instead of the inlined+unrolled code.
///   ppp_cli dump <bench> [--expanded]
///       Print the benchmark's IR.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "ir/Printer.h"
#include "pass/Pipeline.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

using namespace ppp;
using namespace ppp::bench;

namespace {

int usage() {
  fprintf(stderr,
          "usage: ppp_cli list\n"
          "       ppp_cli run <bench> [--profiler=pp|tpp|tpp-checked|ppp|"
          "<spec>] [--no-expand] [--paths=N] [--seed=S]\n"
          "       ppp_cli dump <bench> [--expanded]\n");
  return 2;
}

int cmdList() {
  printf("%-10s %-4s %-8s %s\n", "name", "cls", "inline", "target-instrs");
  for (const BenchmarkSpec &S : spec2000Suite())
    printf("%-10s %-4s %-8s %llu\n", S.Name.c_str(),
           S.IsFp ? "FP" : "INT", S.AllowInlining ? "yes" : "no",
           (unsigned long long)S.TargetDynInstrs);
  return 0;
}

/// \p B with its original code in the expanded code's place, so
/// runProfiler() profiles the original.
PreparedBenchmark originalSide(PreparedBenchmark B) {
  B.Expanded = std::move(B.Original);
  B.EP = std::move(B.EPOrig);
  B.Oracle = std::move(B.OracleOrig);
  B.CostBase = B.CostOrig;
  B.DynInstrs = B.DynInstrsOrig;
  return B;
}

int cmdRun(const std::string &Bench, const std::string &Profiler,
           bool Expand, unsigned TopPaths, std::optional<uint64_t> Seed) {
  std::optional<BenchmarkSpec> Spec = findBenchmark(Bench);
  if (!Spec) {
    fprintf(stderr, "error: unknown benchmark '%s' (try `ppp_cli list`)\n",
            Bench.c_str());
    return 1;
  }
  if (Seed)
    Spec->Params.Seed = *Seed;

  ProfilerOptions Opts;
  std::string Err;
  if (!parseProfilerSpec(Profiler, Opts, Err)) {
    fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  PreparedBenchmark B = prepare(*Spec);
  if (!Expand)
    B = originalSide(std::move(B));
  printf("%s (%s, %s): %llu dynamic instrs, %llu dynamic paths, "
         "%llu distinct\n",
         Bench.c_str(), Spec->IsFp ? "FP" : "INT",
         Expand ? "inlined+unrolled" : "original",
         (unsigned long long)B.DynInstrs,
         (unsigned long long)B.Oracle.totalFreq(),
         (unsigned long long)B.Oracle.distinctPaths());

  ProfilerOutcome P = runProfiler(B, Opts);
  const Module &M = B.Expanded;
  unsigned Instrumented = 0, Hashed = 0;
  for (const FunctionPlan &Plan : P.IR->Plans) {
    Instrumented += Plan.Instrumented;
    Hashed += Plan.Instrumented && Plan.TableKind == PathTable::Kind::Hash;
  }
  printf("profiler %s: %u/%u routines instrumented (%u hashed)\n",
         Opts.Name.c_str(), Instrumented, M.numFunctions(), Hashed);
  printf("overhead      %.2f%%\n", P.OverheadPct);
  printf("accuracy      %.1f%%  (%zu hot paths carrying %.1f%% of flow)\n",
         100 * P.Acc.Accuracy, P.Acc.NumHotPaths, 100 * P.Acc.HotFlowFraction);
  printf("coverage      %.1f%%  (overcount penalty %llu)\n",
         100 * P.Cov.Coverage, (unsigned long long)P.Cov.OvercountFlow);
  printf("instrumented  %.1f%% of dynamic paths (%.1f%% hashed)\n",
         100 * P.Frac.Total, 100 * P.Frac.Hashed);
  printf("cold counts   %llu, lost %llu, invalid %llu\n",
         (unsigned long long)P.Run.ColdCounts,
         (unsigned long long)P.Run.LostCounts,
         (unsigned long long)P.Run.InvalidCounts);

  // Hottest measured paths.
  struct Entry {
    FuncId F;
    const PathRecord *R;
  };
  std::vector<Entry> Hot;
  for (unsigned F = 0; F < M.numFunctions(); ++F)
    for (const PathRecord &Rec : P.Run.Estimated.Funcs[F].Paths)
      Hot.push_back({static_cast<FuncId>(F), &Rec});
  std::sort(Hot.begin(), Hot.end(), [](const Entry &A, const Entry &B) {
    return A.R->flow(FlowMetric::Branch) > B.R->flow(FlowMetric::Branch);
  });
  printf("\ntop %u paths by branch flow:\n", TopPaths);
  for (unsigned K = 0; K < TopPaths && K < Hot.size(); ++K) {
    const Entry &E = Hot[K];
    CfgView Cfg(M.function(E.F));
    printf("  %-8s freq %9llu  brs %2u  blocks",
           M.function(E.F).Name.c_str(),
           (unsigned long long)E.R->Freq, E.R->Branches);
    std::vector<BlockId> Blocks = E.R->Key.blocks(Cfg);
    for (size_t BI = 0; BI < Blocks.size() && BI < 12; ++BI)
      printf(" b%d", Blocks[BI]);
    if (Blocks.size() > 12)
      printf(" ...");
    printf("\n");
  }
  return 0;
}

int cmdDump(const std::string &Bench, bool Expanded) {
  std::optional<BenchmarkSpec> Spec = findBenchmark(Bench);
  if (!Spec) {
    fprintf(stderr, "error: unknown benchmark '%s'\n", Bench.c_str());
    return 1;
  }
  PreparedBenchmark B = prepare(*Spec);
  fputs(printModule(Expanded ? B.Expanded : B.Original).c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  if (Cmd == "list")
    return cmdList();

  if (argc < 3)
    return usage();
  std::string Bench = argv[2];
  std::string Profiler = "ppp";
  bool Expand = true;
  bool DumpExpanded = false;
  unsigned TopPaths = 10;
  std::optional<uint64_t> Seed;
  for (int A = 3; A < argc; ++A) {
    std::string Arg = argv[A];
    if (Arg.rfind("--profiler=", 0) == 0)
      Profiler = Arg.substr(11);
    else if (Arg == "--no-expand")
      Expand = false;
    else if (Arg == "--expanded")
      DumpExpanded = true;
    else if (Arg.rfind("--paths=", 0) == 0)
      TopPaths = static_cast<unsigned>(atoi(Arg.c_str() + 8));
    else if (Arg.rfind("--seed=", 0) == 0)
      Seed = strtoull(Arg.c_str() + 7, nullptr, 0);
    else
      return usage();
  }

  if (Cmd == "run")
    return cmdRun(Bench, Profiler, Expand, TopPaths, Seed);
  if (Cmd == "dump")
    return cmdDump(Bench, DumpExpanded);
  return usage();
}
