//===- bench/interp_throughput.cpp - Interpreter speed baseline ---------------===//
///
/// Reports raw interpreter throughput (interpreted instructions per
/// wall-clock second) for the execution configurations the evaluation
/// exercises, all on the same prepared program (B.Expanded): a clean
/// run (no observers, no runtime), an edge-observed run (the "free"
/// edge profile), and a PPP-instrumented run counting into a
/// ProfileRuntime, plus an A/A variant -- the clean run against itself,
/// which bounds the method's own bias. MIPS is clean DynInstrs per wall
/// second for every variant (the same useful work), and each overhead is
/// a blocked wall-time ratio against clean (bench/Measure.h). This is
/// the regression baseline for execution-engine work; unlike every
/// figure/table binary its numbers are wall-clock based and
/// machine-dependent.
///
/// Cold start (interpreter construction plus the first 10k instructions)
/// is measured the same way, lazy vs eager decode as two variants.
///
/// `--json[=PATH]` additionally measures the full-suite preparation
/// pipeline cold (every rep computing into a fresh cache directory) vs
/// warm (loading every benchmark back from disk), and writes the whole
/// report to PATH (default BENCH_throughput.json): the obs registry's
/// `throughput.` keys in the "ppp-metrics-v1" schema, which
/// tools/bench_diff.py --gate throughput compares.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Measure.h"
#include "PrepCache.h"

#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "pathprof/Profilers.h"
#include "profile/Collectors.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// 40 blocked reps per variant: with 20, the A/A ratio's median still
/// wandered about +-1.3% between runs on a shared 4-vCPU host; 40 keep
/// it inside +-0.6%.
constexpr unsigned Warmup = 2, Reps = 40;

/// Cold-start latency: interpreter construction plus the first
/// ColdStartInstrs interpreted instructions. Eager decodes the whole
/// module up front; lazy (the default) decodes each function at its
/// first call, so startup only pays for the functions the prefix
/// touches. One rep is ColdStartsPerRep starts.
constexpr uint64_t ColdStartInstrs = 10'000;
constexpr unsigned ColdStartsPerRep = 10;

/// Reported columns: effective MIPS (clean DynInstrs per wall second),
/// wall time over clean, and cold-start microseconds per start.
enum Column {
  CleanMips,
  EdgeObsMips,
  PppInstrMips,
  EdgeObsRatio,
  PppInstrRatio,
  AaRatio,
  ColdLazyUs,
  ColdEagerUs,
  NumColumns
};
constexpr const char *ColumnKeys[NumColumns] = {
    "clean_mips",     "edge_obs_mips",   "ppp_instr_mips",
    "edge_obs_ratio", "ppp_instr_ratio", "aa_ratio",
    "cold_start_lazy_us", "cold_start_eager_us"};

struct BenchRow {
  std::string Name;
  uint64_t DynInstrs = 0;
  Spread Col[NumColumns];
  uint64_t LazyDecoded = 0, TotalFns = 0; ///< Functions decoded vs present.
};

BenchRow measureBenchmark(const BenchmarkSpec &Spec) {
  BenchRow Row;
  Row.Name = Spec.Name;
  PreparedBenchmark B = prepare(Spec);
  const Module &M = B.Expanded;

  Interpreter Clean(M);
  Row.DynInstrs = Clean.run().DynInstrs;
  // One observer across reps: each rep adds the same increments.
  EdgeProfiler Obs(M);
  Interpreter Edge(M);
  Edge.addObserver(&Obs);
  InstrumentationResult IR =
      instrumentModule(M, B.EP, ProfilerOptions::ppp());
  Interpreter Instr(IR.Instrumented);
  ProfileRuntime RT = IR.makeRuntime();
  Instr.setProfileRuntime(&RT);

  auto RunClean = [&] { Clean.run(); };
  Samples S = measure({RunClean, [&] { Edge.run(); },
                       [&] {
                         RT.clearCounts();
                         Instr.run();
                       },
                       RunClean},
                      Warmup, Reps);
  double MInstrs = static_cast<double>(Row.DynInstrs) / 1e6;
  for (int V = 0; V < 3; ++V)
    Row.Col[CleanMips + V] = S.rate(V, MInstrs);
  for (int V = 1; V < 4; ++V)
    Row.Col[EdgeObsRatio + V - 1] = S.ratio(V);

  auto ColdStarts = [&](bool Eager) {
    InterpOptions IO;
    IO.Fuel = ColdStartInstrs;
    IO.EagerDecode = Eager;
    for (unsigned I = 0; I < ColdStartsPerRep; ++I) {
      Interpreter Interp(M, IO);
      Interp.run();
    }
  };
  {
    InterpOptions IO;
    IO.Fuel = ColdStartInstrs;
    Interpreter Interp(M, IO);
    Interp.run();
    Row.LazyDecoded = Interp.versions().decodedFunctions();
    Row.TotalFns = Interp.versions().numFunctions();
  }
  Samples C = measure({[&] { ColdStarts(false); }, [&] { ColdStarts(true); }},
                      Warmup, Reps);
  Row.Col[ColdLazyUs] = C.time(0, 1e6 / ColdStartsPerRep);
  Row.Col[ColdEagerUs] = C.time(1, 1e6 / ColdStartsPerRep);
  return Row;
}

/// Measures and reports the suite prepare pipeline (steps 1-4 for every
/// benchmark) cold vs warm in private throwaway cache directories,
/// leaving the process-wide cache state the way it was found. Every
/// cold rep computes (and serializes and stores) into a fresh
/// directory; every warm rep reads one populated directory back from
/// disk, its memory layer dropped first.
void measureSuitePrepare() {
  constexpr unsigned PrepWarmup = 1, PrepReps = 4;
  std::vector<BenchmarkSpec> Suite = spec2000Suite();

  std::error_code Ec;
  std::filesystem::path Root =
      std::filesystem::temp_directory_path(Ec) /
      ("ppp-throughput-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Root, Ec);
  auto PrepareIn = [&](const std::string &Dir) {
    prepCacheOverride(Dir, true);
    prepCacheClearMemory();
    runSuiteParallel(Suite, [](const BenchmarkSpec &Spec) {
      return prepareShared(Spec, CostModel()) != nullptr;
    });
  };
  std::string WarmDir = (Root / "warm").string();
  PrepareIn(WarmDir);
  unsigned ColdRuns = 0;
  auto Cold = [&] {
    PrepareIn((Root / ("cold" + std::to_string(ColdRuns++))).string());
  };
  Samples S =
      measure({Cold, [&] { PrepareIn(WarmDir); }}, PrepWarmup, PrepReps);
  prepCacheOverride("", true);
  prepCacheClearMemory();
  std::filesystem::remove_all(Root, Ec);

  printf("\nSuite preparation (steps 1-4, all %zu benchmarks): cold "
         "%.2fs, warm %.3fs (%.1fx)\n",
         Suite.size(), S.time(0).Median, S.time(1).Median,
         S.ratio(0, 1).Median);
  obs::gauge("throughput.suite_prepare.benchmarks").set(Suite.size());
  publish("throughput.suite_prepare.cold_sec", S.time(0));
  publish("throughput.suite_prepare.warm_sec", S.time(1));
  publish("throughput.suite_prepare.speedup", S.ratio(0, 1));
}

/// Publishes the report into the obs registry under `throughput.`.
void publishRows(const std::vector<BenchRow> &Rows) {
  obs::gauge("throughput.reps").set(Reps);
  std::vector<Spread> Avg[NumColumns];
  for (const BenchRow &R : Rows) {
    std::string K = "throughput.bench." + R.Name + ".";
    for (int C = 0; C < NumColumns; ++C) {
      publish(K + ColumnKeys[C], R.Col[C]);
      Avg[C].push_back(R.Col[C]);
    }
    obs::counter(K + "dyn_instrs").inc(R.DynInstrs);
    obs::gauge(K + "cold_start_decoded_fns")
        .set(static_cast<double>(R.LazyDecoded));
  }
  for (int C = 0; C < NumColumns; ++C)
    publish(std::string("throughput.average.") + ColumnKeys[C],
            meanOf(Avg[C]));
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_throughput.json";
  bool Json = jsonFlag(argc, argv, JsonPath);

  printf("Interpreter throughput on the prepared module (million clean "
         "instructions per wall second, median of %u blocked reps; "
         "ratios = wall time over clean)\n\n",
         Reps);
  printf("%-10s%10s%10s%10s%9s%9s%9s%12s%11s%11s%10s\n", "bench", "clean",
         "edge-obs", "ppp-instr", "edge-x", "ppp-x", "a/a", "dyn-instrs",
         "cold-lazy", "cold-eager", "decoded");

  std::vector<BenchRow> Rows;
  // Three representative recipes: branchy INT, call-heavy INT, loopy FP.
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)}) {
    if (Pick >= Suite.size())
      continue;
    BenchRow R = measureBenchmark(Suite[Pick]);
    printf("%-10s%10.2f%10.2f%10.2f%9.3f%9.3f%9.3f%12llu%11.1f%11.1f"
           "%7llu/%llu\n",
           R.Name.c_str(), R.Col[CleanMips].Median,
           R.Col[EdgeObsMips].Median, R.Col[PppInstrMips].Median,
           R.Col[EdgeObsRatio].Median, R.Col[PppInstrRatio].Median,
           R.Col[AaRatio].Median, static_cast<unsigned long long>(R.DynInstrs),
           R.Col[ColdLazyUs].Median, R.Col[ColdEagerUs].Median,
           static_cast<unsigned long long>(R.LazyDecoded),
           static_cast<unsigned long long>(R.TotalFns));
    Rows.push_back(std::move(R));
  }
  publishRows(Rows);

  if (Json) {
    measureSuitePrepare();
    writeReport(JsonPath, "throughput.");
  }
  return 0;
}
