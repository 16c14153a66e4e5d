//===- bench/adaptive_steadystate.cpp - Does closing the PGO loop pay? --------===//
///
/// \file
/// Five pipelines over the same programs, on the modelled clock and on
/// the wall clock:
///
///   clean     the unoptimized module, no instrumentation -- the
///             reference semantics and the DynInstrs numerator;
///   instr     the PPP-instrumented module under a controller whose
///             epoch never comes: what "always profiling, never acting"
///             costs, the floor adaptation has to claw back;
///   static    one-shot offline PGO: profile, whole-module inline +
///             re-profile + unroll, then run the optimized module with
///             no further profiling (the repo's classic pipeline);
///   adaptive  the src/adapt loop: the instrumented module plus an
///             AdaptiveController sampling live counters every epoch,
///             specializing hot functions one at a time and hot-swapping
///             them through the VersionTable, ranked by count hotness;
///   pathtime  the same loop ranked by PathTime hotness, fed one timed
///             trace of the clean module (trace::collect).
///
/// Subjects: phase-shifting programs (workload/Generator.h's fused
/// phased modules, whose hot set migrates wholesale mid-run), stable
/// single-phase controls, and the cost-skewed pair (skewed, whose cost
/// points away from its counts, and its uniform control). Each carries
/// its adaptive cadence.
///
/// Every pipeline runs 32 times in bench/Measure.h's blocked order (16
/// warm-up runs, then 8 blocked reps of a lead run plus a timed run);
/// steady state is the last 16. Reported per subject:
///
///  - steady-state modelled cost per pipeline (sum of RunResult::Cost
///    over the steady runs): the paper's deterministic clock, with
///    model_ratio = static / adaptive and steady_cost_ratio = adaptive /
///    pathtime;
///  - wall-clock effective MIPS (clean DynInstrs / wall sec) and the
///    blocked wall ratios: ratio = static / adaptive, count_time_ratio =
///    adaptive / pathtime, and each profiled pipeline over clean;
///  - each adaptive pipeline's first specialized function and the share
///    of the timed run's attributed cost it covers.
///
/// Every run is checked bit-identical to clean in ReturnValue /
/// MemChecksum before any number is reported. The bench exits 1 if the
/// skewed subject's two adaptive pipelines pick the same first
/// function, if PathTime's steady modelled cost exceeds count's there,
/// or if PathTime's first pick covers less attributed cost.
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
#include "support/Format.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::adapt;
using namespace ppp::bench;

namespace {

/// 16 warm-up runs, then 8 blocked reps (a lead run plus a timed run
/// each): every pipeline runs 32 times, the last 16 steady.
constexpr unsigned Warmup = 16, Reps = 8;

enum Pipe { Clean, Floor, Static, Count, Time, NumPipes };
constexpr const char *PipeNames[NumPipes] = {"clean", "instr", "static",
                                             "adaptive", "pathtime"};
constexpr const char *MipsKeys[NumPipes] = {
    "clean_mips", "instr_mips", "static_mips", "adaptive_mips", "time_mips"};
constexpr const char *CostKeys[NumPipes] = {
    "clean_steady_cost", "instr_steady_cost", "static_steady_cost",
    "count_steady_cost", "time_steady_cost"};

enum class Kind { Phased, Stable, Skewed, Control };
constexpr const char *KindNames[] = {"phased", "stable", "skewed",
                                     "control"};

/// One workload under test (named by its module) and its adaptive
/// cadence.
struct Subject {
  Kind K;
  Module M;
  AdaptiveOptions AO;
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

Module phased(const char *Name, uint64_t SeedA, uint64_t SeedB,
              uint64_t PhaseLen) {
  PhasedWorkloadParams PP;
  PP.Name = Name;
  PP.PhaseA = callHeavyPhase(SeedA);
  PP.PhaseB = callHeavyPhase(SeedB);
  PP.PhaseLen = PhaseLen;
  PP.Trips = 64;
  return generatePhasedWorkload(PP);
}

Module stable(const char *Name, uint64_t Seed) {
  WorkloadParams P = callHeavyPhase(Seed);
  P.Name = Name;
  P.MainLoopTrips = 320;
  return generateWorkload(P);
}

/// The revert threshold is generous for every subject: on a phased
/// program epoch cost swings with the phase mix, not the candidate
/// version (the revert path itself is exercised deterministically in
/// tests/adapt_test).
AdaptiveOptions cadence(uint64_t EpochCalls, unsigned EvalEpochs) {
  AdaptiveOptions AO;
  AO.EpochCalls = EpochCalls;
  AO.MinPathDelta = 4;
  AO.EvalEpochs = EvalEpochs;
  AO.RevertThresholdPct = 60.0;
  return AO;
}

std::vector<Subject> buildSubjects() {
  // A long eval window for the generated subjects; an aggressive
  // cadence for the small cost-skewed pair, whose 128-iteration phase
  // puts the first pick epoch (epoch 2: epoch 1 only establishes the cost
  // baseline) entirely inside the bushy-heavy opening phase: 10
  // profiled calls per iteration * 128 iterations = 1280 calls > 2 *
  // EpochCalls.
  AdaptiveOptions Long = cadence(256, 6), Short = cadence(512, 2);
  std::vector<Subject> Out;
  Out.push_back({Kind::Phased, phased("phased_ab", 11, 47, 16), Long});
  Out.push_back({Kind::Phased, phased("phased_fast", 23, 61, 4), Long});
  Out.push_back({Kind::Stable, stable("stable_a", 11), Long});
  Out.push_back({Kind::Stable, stable("stable_b", 101), Long});
  Out.push_back({Kind::Skewed, generateCostSkewedWorkload(true), Short});
  Out.push_back({Kind::Control, generateCostSkewedWorkload(false), Short});
  return Out;
}

[[noreturn]] void die(const Subject &S, const std::string &Why) {
  fprintf(stderr, "error: %s: %s\n", S.M.Name.c_str(), Why.c_str());
  exit(1);
}

void dieIfDiffers(const char *What, const Subject &S, const RunResult &Ref,
                  const RunResult &Got) {
  if (Got.ReturnValue != Ref.ReturnValue ||
      Got.MemChecksum != Ref.MemChecksum || Got.FuelExhausted)
    die(S, formatString("%s run diverges from clean (ret %lld vs %lld, "
                        "checksum %llx vs %llx%s)",
                        What, static_cast<long long>(Got.ReturnValue),
                        static_cast<long long>(Ref.ReturnValue),
                        static_cast<unsigned long long>(Got.MemChecksum),
                        static_cast<unsigned long long>(Ref.MemChecksum),
                        Got.FuelExhausted ? ", fuel exhausted" : ""));
}

/// Timed trace of the clean module, decoded into the attribution
/// profile the pathtime pipeline feeds on. Phase windows are sized for
/// the small subjects so the detector produces a real report.
trace::PathTimingProfile profileTiming(const Subject &S,
                                       const EdgeProfile &EP) {
  InstrumentationResult IR =
      instrumentModule(S.M, EP, ProfilerOptions::traceTimed());
  ProfileRuntime RT = IR.makeRuntime();
  trace::PathTimingOptions TO;
  TO.PhaseWindowExecs = 256;
  trace::PathTimingProfile Timing(TO);
  RunResult Res;
  std::string Err;
  if (!trace::collect(S.M, IR, InterpOptions(), RT, Res, Err, &Timing))
    die(S, Err);
  Timing.finishPhases();
  if (Timing.attributedCost() + Timing.unattributedCost() !=
      Timing.totalCost())
    die(S, "cost conservation violated");
  return Timing;
}

/// What one adaptive pipeline picked first, and the share of the timed
/// run's attributed cost that function carries.
struct Pick {
  FuncId F = -1;
  double Cover = 0;
};

struct BenchRow {
  const Subject *S = nullptr;
  Spread Mips[NumPipes];
  Spread OverClean[NumPipes]; ///< Wall time over clean's.
  Spread Ratio;               ///< static / adaptive wall time.
  Spread CountTimeRatio;      ///< adaptive / pathtime wall time.
  uint64_t Steady[NumPipes] = {}; ///< Modelled cost, runs after warm-up.
  uint64_t Total[NumPipes] = {};  ///< Modelled cost, every run.
  Pick First[NumPipes];           ///< Filled for Count and Time.
  uint64_t Installed = 0, Reverted = 0, Epochs = 0;
  size_t Windows = 0, Boundaries = 0;

  static double ratioOf(uint64_t Num, uint64_t Den) {
    return Den > 0 ? static_cast<double>(Num) / static_cast<double>(Den)
                   : 0;
  }
  /// static / adaptive steady modelled cost: above 1, adaptation pays.
  double modelRatio() const { return ratioOf(Steady[Static], Steady[Count]); }
  /// adaptive / pathtime steady modelled cost: >= 1 means PathTime
  /// hotness is no worse.
  double steadyRatio() const { return ratioOf(Steady[Count], Steady[Time]); }
};

BenchRow measureSubject(const Subject &S) {
  BenchRow Row;
  Row.S = &S;
  InterpOptions IO;

  // Clean reference: semantics and the effective-MIPS numerator.
  Interpreter CleanI(S.M, IO);
  RunResult Ref = CleanI.run();
  if (Ref.FuelExhausted)
    die(S, "clean run exhausted fuel");

  // Static one-shot PGO: the same profile the adaptive sessions get as
  // instrumentation advice, spent all at once. Unroll advice must come
  // from a re-profile (the inliner left the edge ids stale).
  EdgeProfile Advice = profileClean(S.M, IO).EP;
  Module Opt = S.M;
  runInliner(Opt, Advice);
  EdgeProfile Advice2 = profileClean(Opt, IO).EP;
  runUnroller(Opt, Advice2);
  Interpreter StaticI(Opt, IO);

  trace::PathTimingProfile Timing = profileTiming(S, Advice);
  Row.Windows = Timing.windows().size();
  Row.Boundaries = Timing.phaseBoundaries().size();

  AdaptiveOptions Never, TimeAO = S.AO;
  Never.EpochCalls = ~0ull;
  TimeAO.Timing = &Timing;
  std::unique_ptr<AdaptiveSession> Sess[NumPipes];
  Sess[Floor] = AdaptiveSession::create(S.M, Advice, IO, Never);
  Sess[Count] = AdaptiveSession::create(S.M, Advice, IO, S.AO);
  Sess[Time] = AdaptiveSession::create(S.M, Advice, IO, TimeAO);

  unsigned Runs[NumPipes] = {};
  std::vector<std::function<void()>> Variants;
  for (int P = 0; P < NumPipes; ++P)
    Variants.push_back([&, P] {
      RunResult Got = P == Clean    ? CleanI.run()
                      : P == Static ? StaticI.run()
                                    : Sess[P]->run();
      dieIfDiffers(PipeNames[P], S, Ref, Got);
      Row.Total[P] += Got.Cost;
      if (++Runs[P] > Warmup)
        Row.Steady[P] += Got.Cost;
    });
  Samples Secs = measure(Variants, Warmup, Reps);

  double MInstrs = static_cast<double>(Ref.DynInstrs) / 1e6;
  for (int P = 0; P < NumPipes; ++P) {
    Row.Mips[P] = Secs.rate(P, MInstrs);
    Row.OverClean[P] = Secs.ratio(P);
  }
  Row.Ratio = Secs.ratio(Static, Count);
  Row.CountTimeRatio = Secs.ratio(Count, Time);

  uint64_t Attributed = Timing.attributedCost();
  for (int P : {Count, Time}) {
    AdaptiveController &C = Sess[P]->controller();
    Pick &Pk = Row.First[P];
    // AdaptStats::FirstInstall survives reverts: a pick whose eval
    // window straddles a phase boundary gets reverted (the phase-B cost
    // jump reads as a regression), and the version table would then
    // show only the second pick.
    Pk.F = C.stats().FirstInstall;
    auto It = Timing.functions().find(Pk.F);
    if (Attributed > 0 && It != Timing.functions().end())
      Pk.Cover = static_cast<double>(It->second.TotalCost) /
                 static_cast<double>(Attributed);
    C.flushMetrics();
  }
  const AdaptStats &St = Sess[Count]->controller().stats();
  Row.Installed = St.VersionsInstalled;
  Row.Reverted = St.VersionsReverted;
  Row.Epochs = St.Epochs;
  return Row;
}

void publishRows(const std::vector<BenchRow> &Rows) {
  obs::gauge("adapt.bench.reps").set(Warmup + 2 * Reps);
  auto Set = [](const std::string &Key, double V) { obs::gauge(Key).set(V); };
  std::vector<Spread> Avg[NumPipes];
  Spread WorstStable{2.0, 0, 0}, BestPhased{0, 0, 0};
  double WorstSteadyRatio = 10.0, TransientGain = 0, CoverGain = 0,
         PicksDiffer = 0;
  for (const BenchRow &R : Rows) {
    std::string K = "adapt.bench." + R.S->M.Name + ".";
    for (int P = 0; P < NumPipes; ++P) {
      publish(K + MipsKeys[P], R.Mips[P]);
      Avg[P].push_back(R.Mips[P]);
      Set(K + CostKeys[P], static_cast<double>(R.Steady[P]));
    }
    publish(K + "instr_ratio", R.OverClean[Floor]);
    publish(K + "count_ratio", R.OverClean[Count]);
    publish(K + "time_ratio", R.OverClean[Time]);
    publish(K + "ratio", R.Ratio);
    publish(K + "count_time_ratio", R.CountTimeRatio);
    Set(K + "model_ratio", R.modelRatio());
    Set(K + "steady_cost_ratio", R.steadyRatio());
    Set(K + "count_first_pick", R.First[Count].F);
    Set(K + "time_first_pick", R.First[Time].F);
    Set(K + "count_first_cover", R.First[Count].Cover);
    Set(K + "time_first_cover", R.First[Time].Cover);
    Set(K + "windows", static_cast<double>(R.Windows));
    Set(K + "phase_boundaries", static_cast<double>(R.Boundaries));
    Set(K + "versions_installed", static_cast<double>(R.Installed));
    Set(K + "versions_reverted", static_cast<double>(R.Reverted));

    switch (R.S->K) {
    case Kind::Phased:
      if (R.Ratio.Median > BestPhased.Median)
        BestPhased = R.Ratio;
      break;
    case Kind::Stable:
      if (R.Ratio.Median < WorstStable.Median)
        WorstStable = R.Ratio;
      break;
    case Kind::Skewed:
      PicksDiffer = R.First[Count].F != R.First[Time].F ? 1 : 0;
      TransientGain = BenchRow::ratioOf(R.Total[Count], R.Total[Time]);
      CoverGain = R.First[Count].Cover > 0
                      ? R.First[Time].Cover / R.First[Count].Cover
                      : 0;
      [[fallthrough]];
    case Kind::Control:
      WorstSteadyRatio = std::min(WorstSteadyRatio, R.steadyRatio());
      break;
    }
  }
  for (int P : {Clean, Static, Count})
    publish(std::string("adapt.average.") + MipsKeys[P], meanOf(Avg[P]));
  // Adaptive must win at least one phased workload and stay within 2%
  // of static on every stable one.
  publish("adapt.average.best_phased_ratio", BestPhased);
  publish("adapt.average.worst_stable_ratio", WorstStable);
  // On the skewed subject PathTime must pick a different first
  // candidate, covering at least as much attributed cost; on the
  // skewed pair its steady modelled cost must be no worse.
  Set("adapt.accept.picks_differ", PicksDiffer);
  Set("adapt.accept.worst_steady_ratio", WorstSteadyRatio);
  Set("adapt.accept.skewed_transient_gain", TransientGain);
  Set("adapt.accept.skewed_cover_gain", CoverGain);
}

const char *pickName(const Subject &S, FuncId F) {
  return F >= 0 ? S.M.function(F).Name.c_str() : "-";
}

/// The three exit-1 checks on the skewed subject's deterministic
/// quantities; returns whether they all hold.
bool acceptSkewed(const BenchRow &R) {
  if (R.First[Count].F == R.First[Time].F) {
    fprintf(stderr, "error: skewed subject: both pipelines picked the "
                    "same first candidate\n");
    return false;
  }
  if (R.Steady[Time] > R.Steady[Count]) {
    fprintf(stderr,
            "error: skewed subject: time-weighted steady cost %llu "
            "exceeds count-based %llu\n",
            static_cast<unsigned long long>(R.Steady[Time]),
            static_cast<unsigned long long>(R.Steady[Count]));
    return false;
  }
  if (R.First[Time].Cover < R.First[Count].Cover) {
    fprintf(stderr, "error: skewed subject: time-weighted first pick "
                    "covers less attributed cost than count-based\n");
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_adapt.json";
  bool Json = jsonFlag(argc, argv, JsonPath);

  std::vector<Subject> Subjects = buildSubjects();
  std::vector<BenchRow> Rows;
  for (const Subject &S : Subjects)
    Rows.push_back(measureSubject(S));

  printf("Adaptive vs. static steady state (%u warm-up runs + %u blocked "
         "reps; every run checked bit-identical to clean)\n\n",
         Warmup, Reps);
  printf("Wall clock: effective MIPS = clean DynInstrs / wall sec; ratio = "
         "static / adaptive, c/t = adaptive / pathtime wall time\n");
  printf("%-12s%9s%12s%12s%12s%12s%12s%8s%8s\n", "bench", "kind",
         "clean-mips", "instr-mips", "static-mips", "adapt-mips",
         "time-mips", "ratio", "c/t");
  for (const BenchRow &R : Rows)
    printf("%-12s%9s%12.2f%12.2f%12.2f%12.2f%12.2f%8.3f%8.3f\n",
           R.S->M.Name.c_str(), KindNames[static_cast<int>(R.S->K)],
           R.Mips[Clean].Median, R.Mips[Floor].Median,
           R.Mips[Static].Median, R.Mips[Count].Median,
           R.Mips[Time].Median, R.Ratio.Median, R.CountTimeRatio.Median);

  printf("\nModelled clock: steady cost = sum of RunResult::Cost over the "
         "last %u runs; model = static / adaptive, c/t = adaptive / "
         "pathtime steady cost\n",
         2 * Reps);
  printf("%-12s%13s%13s%13s%8s%8s%7s%5s%7s%7s  %-14s%8s%8s\n", "bench",
         "static-cost", "adapt-cost", "time-cost", "model", "c/t", "epochs",
         "inst", "revert", "phases", "first (c/t)", "cover-c", "cover-t");
  for (const BenchRow &R : Rows) {
    std::string Picks = std::string(pickName(*R.S, R.First[Count].F)) +
                        "/" + pickName(*R.S, R.First[Time].F);
    printf("%-12s%13llu%13llu%13llu%8.3f%8.4f%7llu%5llu%7llu%7zu  "
           "%-14s%8.3f%8.3f\n",
           R.S->M.Name.c_str(),
           static_cast<unsigned long long>(R.Steady[Static]),
           static_cast<unsigned long long>(R.Steady[Count]),
           static_cast<unsigned long long>(R.Steady[Time]), R.modelRatio(),
           R.steadyRatio(), static_cast<unsigned long long>(R.Epochs),
           static_cast<unsigned long long>(R.Installed),
           static_cast<unsigned long long>(R.Reverted), R.Boundaries + 1,
           Picks.c_str(), R.First[Count].Cover, R.First[Time].Cover);
  }
  printf("\n");

  for (const BenchRow &R : Rows)
    if (R.S->K == Kind::Skewed && !acceptSkewed(R))
      return 1;

  publishRows(Rows);
  if (Json)
    writeReport(JsonPath, "adapt.");
  return 0;
}
