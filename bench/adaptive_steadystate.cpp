//===- bench/adaptive_steadystate.cpp - Adaptive vs. static pipelines ---------===//
///
/// \file
/// The experiment ROADMAP item 1 exists for: does closing the PGO loop
/// pay? Steady-state effective MIPS of three pipelines over the same
/// programs:
///
///   clean    the unoptimized module, no instrumentation -- the
///            reference semantics and the DynInstrs numerator;
///   static   one-shot offline PGO: profile, whole-module inline +
///            re-profile + unroll, then run the optimized module with
///            no further profiling (the repo's classic pipeline);
///   adaptive the src/adapt loop: PPP-instrumented module, an
///            AdaptiveController sampling live counters every epoch,
///            specializing hot functions one at a time and hot-swapping
///            them through the VersionTable.
///
/// Workloads are phase-shifting programs (workload/Generator.h's fused
/// phased modules, whose hot set migrates wholesale mid-run) plus
/// stable single-phase controls. Steady state is the second half of
/// each pipeline's 24 runs (bench/Measure.h: 12 warm-up runs, then 6
/// blocked reps of a lead run plus a timed run): by then the controller
/// has specialized the hot set and shed its instrumentation, so what
/// remains is the structural comparison -- static spreads one bloat
/// budget across every phase's hot code, adaptive spends a whole budget
/// per hot function.
///
/// Effective MIPS = clean-module DynInstrs / wall seconds, so every
/// pipeline is measured in the same unit of useful work; ratio is the
/// blocked wall-time ratio static / adaptive. Every run of every
/// pipeline is checked bit-identical to clean in
/// ReturnValue/MemChecksum before any number is reported.
///
/// `--json[=PATH]` writes `adapt.` metrics (BENCH_adapt.json default)
/// in the "ppp-metrics-v1" schema for tools/bench_diff.py --gate adapt.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "adapt/AdaptiveSession.h"
#include "obs/Obs.h"
#include "opt/Inliner.h"
#include "opt/Unroller.h"
#include "profile/Collectors.h"
#include "workload/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::adapt;
using namespace ppp::bench;

namespace {

/// 12 warm-up runs, then 6 blocked reps (a lead run plus a timed run
/// each): every pipeline runs 24 times.
constexpr unsigned Warmup = 12, Reps = 6;

/// Effective MIPS per pipeline (Instr: instrumented, controller never
/// fires), the floor's wall time over clean, and the static / adaptive
/// wall-time ratio.
enum Column {
  CleanMips,
  InstrMips,
  StaticMips,
  AdaptiveMips,
  InstrRatio,
  Ratio,
  NumColumns
};
constexpr const char *ColumnKeys[NumColumns] = {
    "clean_mips",    "instr_mips",  "static_mips",
    "adaptive_mips", "instr_ratio", "ratio"};

struct BenchRow {
  std::string Name;
  bool Phased = false;
  Spread Col[NumColumns];
  uint64_t Installed = 0;
  uint64_t Reverted = 0;
  uint64_t Epochs = 0;

  double ratio() const { return Col[Ratio].Median; }
};

/// One workload under test: a module plus how it was built.
struct Subject {
  std::string Name;
  bool Phased = false;
  Module M;
};

/// Call-heavy shape: most of the win from specialization is removed
/// call/dispatch overhead, and a 5% whole-program bloat budget can only
/// cover a fraction of these sites -- the regime the paper targets.
WorkloadParams callHeavyPhase(uint64_t Seed) {
  WorkloadParams P;
  P.Seed = Seed;
  P.NumFunctions = 10;
  P.LeafFunctions = 4;
  P.CallPct = 30;
  P.LoopPct = 12;
  P.MainLoopTrips = 6;
  return P;
}

std::vector<Subject> buildSubjects() {
  std::vector<Subject> Out;

  auto Phased = [](const char *Name, uint64_t SeedA, uint64_t SeedB,
                   uint64_t PhaseLen) {
    PhasedWorkloadParams PP;
    PP.Name = Name;
    PP.PhaseA = callHeavyPhase(SeedA);
    PP.PhaseB = callHeavyPhase(SeedB);
    PP.PhaseLen = PhaseLen;
    PP.Trips = 64;
    Subject S;
    S.Name = Name;
    S.Phased = true;
    S.M = generatePhasedWorkload(PP);
    return S;
  };
  Out.push_back(Phased("phased_ab", 11, 47, 16));
  Out.push_back(Phased("phased_fast", 23, 61, 4));

  auto Stable = [](const char *Name, uint64_t Seed) {
    WorkloadParams P = callHeavyPhase(Seed);
    P.Name = Name;
    P.MainLoopTrips = 320;
    Subject S;
    S.Name = Name;
    S.Phased = false;
    S.M = generateWorkload(P);
    return S;
  };
  Out.push_back(Stable("stable_a", 11));
  Out.push_back(Stable("stable_b", 101));
  return Out;
}

void dieIfDiffers(const char *What, const Subject &S, const RunResult &Ref,
                  const RunResult &Got) {
  if (Got.ReturnValue == Ref.ReturnValue &&
      Got.MemChecksum == Ref.MemChecksum && !Got.FuelExhausted)
    return;
  fprintf(stderr,
          "error: %s: %s run diverges from clean "
          "(ret %lld vs %lld, checksum %llx vs %llx%s)\n",
          S.Name.c_str(), What,
          static_cast<long long>(Got.ReturnValue),
          static_cast<long long>(Ref.ReturnValue),
          static_cast<unsigned long long>(Got.MemChecksum),
          static_cast<unsigned long long>(Ref.MemChecksum),
          Got.FuelExhausted ? ", fuel exhausted" : "");
  exit(1);
}

BenchRow measureSubject(const Subject &S) {
  BenchRow Row;
  Row.Name = S.Name;
  Row.Phased = S.Phased;
  InterpOptions IO;

  // Clean reference: semantics and the effective-MIPS numerator.
  Interpreter Clean(S.M, IO);
  RunResult Ref = Clean.run();
  if (Ref.FuelExhausted) {
    fprintf(stderr, "error: %s: clean run exhausted fuel\n", S.Name.c_str());
    exit(1);
  }

  // Static one-shot PGO: the same profile the adaptive session gets as
  // instrumentation advice, spent all at once. Unroll advice must come
  // from a re-profile (the inliner left the edge ids stale).
  EdgeProfile Advice = profileClean(S.M, IO).EP;
  Module Opt = S.M;
  runInliner(Opt, Advice);
  EdgeProfile Advice2 = profileClean(Opt, IO).EP;
  runUnroller(Opt, Advice2);
  Interpreter Static(Opt, IO);

  // Instrumented floor: the same PPP-instrumented module the adaptive
  // session runs, but with an epoch cadence it never reaches -- what
  // "always profiling, never acting" costs. The gap up to static is
  // what adaptation has to claw back.
  AdaptiveOptions Never;
  Never.EpochCalls = ~0ull;
  std::unique_ptr<AdaptiveSession> Floor =
      AdaptiveSession::create(S.M, Advice, IO, Never);

  // Adaptive: instrumented module + controller, versions persisting
  // across reps, warm-up included. The eval window is long and the
  // revert threshold forgiving because on a phase-shifting program
  // epoch cost swings with the phase mix, not the candidate version
  // (the revert path itself is exercised deterministically in
  // tests/adapt_test).
  AdaptiveOptions AO;
  AO.EpochCalls = 256;
  AO.MinPathDelta = 4;
  AO.EvalEpochs = 6;
  AO.RevertThresholdPct = 60.0;
  std::unique_ptr<AdaptiveSession> Sess =
      AdaptiveSession::create(S.M, Advice, IO, AO);

  Samples Secs = measure(
      {[&] { dieIfDiffers("clean", S, Ref, Clean.run()); },
       [&] { dieIfDiffers("instrumented", S, Ref, Floor->run()); },
       [&] { dieIfDiffers("static", S, Ref, Static.run()); },
       [&] { dieIfDiffers("adaptive", S, Ref, Sess->run()); }},
      Warmup, Reps);
  double MInstrs = static_cast<double>(Ref.DynInstrs) / 1e6;
  for (int V = 0; V < 4; ++V)
    Row.Col[CleanMips + V] = Secs.rate(V, MInstrs);
  Row.Col[InstrRatio] = Secs.ratio(1);
  Row.Col[Ratio] = Secs.ratio(2, 3);

  const AdaptStats &St = Sess->controller().stats();
  Row.Installed = St.VersionsInstalled;
  Row.Reverted = St.VersionsReverted;
  Row.Epochs = St.Epochs;
  Sess->controller().flushMetrics();
  return Row;
}

void publishRows(const std::vector<BenchRow> &Rows) {
  obs::gauge("adapt.bench.reps").set(Warmup + 2 * Reps);
  std::vector<Spread> Avg[NumColumns];
  Spread WorstStable{2.0, 0}, BestPhased{0, 0};
  for (const BenchRow &R : Rows) {
    std::string K = "adapt.bench." + R.Name + ".";
    for (int C = 0; C < NumColumns; ++C) {
      publish(K + ColumnKeys[C], R.Col[C]);
      Avg[C].push_back(R.Col[C]);
    }
    obs::gauge(K + "versions_installed")
        .set(static_cast<double>(R.Installed));
    obs::gauge(K + "versions_reverted")
        .set(static_cast<double>(R.Reverted));
    if (R.Phased && R.ratio() > BestPhased.Median)
      BestPhased = R.Col[Ratio];
    if (!R.Phased && R.ratio() < WorstStable.Median)
      WorstStable = R.Col[Ratio];
  }
  for (int C : {CleanMips, StaticMips, AdaptiveMips})
    publish(std::string("adapt.average.") + ColumnKeys[C], meanOf(Avg[C]));
  // The acceptance pair: adaptive must win at least one phased workload
  // and stay within 2% of static on every stable one.
  publish("adapt.average.best_phased_ratio", BestPhased);
  publish("adapt.average.worst_stable_ratio", WorstStable);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_adapt.json";
  bool Json = jsonFlag(argc, argv, JsonPath);

  printf("Adaptive vs. static steady state (%u warm-up runs + %u blocked "
         "reps; effective MIPS = clean DynInstrs / wall sec; ratio = static "
         "/ adaptive wall time; every run checked bit-identical to "
         "clean)\n\n",
         Warmup, Reps);
  printf("%-14s%8s%12s%12s%12s%12s%8s%8s%6s%8s\n", "bench", "kind",
         "clean-mips", "instr-mips", "static-mips", "adapt-mips", "ratio",
         "epochs", "inst", "revert");

  std::vector<BenchRow> Rows;
  for (const Subject &S : buildSubjects()) {
    BenchRow R = measureSubject(S);
    printf("%-14s%8s%12.2f%12.2f%12.2f%12.2f%8.3f%8llu%6llu%8llu\n",
           R.Name.c_str(), R.Phased ? "phased" : "stable",
           R.Col[CleanMips].Median, R.Col[InstrMips].Median,
           R.Col[StaticMips].Median, R.Col[AdaptiveMips].Median, R.ratio(),
           static_cast<unsigned long long>(R.Epochs),
           static_cast<unsigned long long>(R.Installed),
           static_cast<unsigned long long>(R.Reverted));
    Rows.push_back(std::move(R));
  }
  publishRows(Rows);

  if (Json)
    writeReport(JsonPath, "adapt.");
  return 0;
}
