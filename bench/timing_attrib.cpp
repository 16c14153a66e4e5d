//===- bench/timing_attrib.cpp - Time-weighted vs. count-based picks ----------===//
///
/// \file
/// The experiment the timing feed exists for: on a workload whose
/// *cost* is skewed away from its *counts*, does feeding the adaptive
/// controller per-path timing attribution change which function it
/// specializes first -- and does the change help (or at least never
/// hurt)?
///
/// The workload is hand-built so the skew is exact, not statistical:
///
///   bushy   a large-static-size function (a 12-arm switch over fat
///           arms) whose dynamic paths are short and cheap -- every op
///           is unit-cost. Called 8x per driver iteration: the
///           count-based score (path delta x static size) loves it.
///   dense   a chain of six branch diamonds whose arms are packed with
///           DivU/RemU (8x unit cost in the model): moderate static
///           size, similar call-path shape, but each execution costs
///           ~20x a bushy one. Called 1x per iteration in phase A.
///
/// main alternates bushy-heavy and dense-heavy phases every PhaseLen
/// driver iterations (the phased shape the detector in trace/PathTiming
/// windows over). A control subject has the identical structure with
/// dense's divisions replaced by unit-cost ops, so counts and cost
/// agree and both controllers should behave the same.
///
/// For each subject: a timed trace of the clean module decodes into a
/// PathTimingProfile; then two AdaptiveSessions run beside the clean
/// module in bench/Measure.h's blocked order (16 warm-up runs, then 8
/// blocked reps of a lead run plus a timed run each) --
/// HotnessSource::Count vs. HotnessSource::PathTime fed that profile.
/// Reported per pipeline:
///
///  - the first specialized function and how much of the run's
///    attributed cost it covers (the pick-quality demonstration);
///  - steady-state modeled cost (sum of RunResult::Cost over the 16 runs
///    after the warm-up): *deterministic*, so the no-worse acceptance
///    check is exact rather than wall-clock-noisy;
///  - wall-clock effective MIPS (clean DynInstrs / wall sec), the same
///    informational unit as bench/adaptive_steadystate.
///
/// Every adaptive run is checked bit-identical to the clean run before
/// any number is reported. The bench hard-fails (exit 1) if the skewed
/// subject's pipelines pick the same first function, or if the
/// time-weighted pipeline's steady-state modeled cost exceeds the
/// count-based one's there.
///
/// `--json[=PATH]` writes `timing.` metrics (BENCH_timing.json) in the
/// "ppp-metrics-v1" schema for tools/bench_diff.py --gate timing.
///
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "adapt/AdaptiveSession.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "profile/Collectors.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"

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

/// Large static size, short cheap paths: a small diamond into a 12-arm
/// switch, arms straight-line unit-cost ops. The leading diamond keeps
/// the routine's paths from all being obvious (a path per switch arm
/// alone would have a defining edge each, and the ppp/trace plan's
/// skip-obvious gate would leave the routine uninstrumented -- and so
/// invisible to timing attribution).
FuncId emitBushy(IRBuilder &B, const std::string &Name) {
  FuncId F = B.beginFunction(Name, 1);
  RegId S = B.emitMov(0);
  RegId Salt = B.emitConst(0x9e3779b97f4a7c15LL);
  B.emitBinary(Opcode::Xor, S, Salt, S);
  RegId Seven = B.emitConst(7);
  RegId T = B.emitBinary(Opcode::Shr, S, Seven);
  B.emitBinary(Opcode::Add, S, T, S);
  RegId Two = B.emitConst(2);
  RegId Par = B.emitBinary(Opcode::And, S, Two);
  BlockId DThen = B.newBlock(), DElse = B.newBlock(), DJoin = B.newBlock();
  B.emitCondBr(Par, DThen, DElse);
  B.setInsertPoint(DThen);
  B.emitAddImm(S, 0x11, S);
  B.emitBr(DJoin);
  B.setInsertPoint(DElse);
  B.emitAddImm(S, 0x29, S);
  B.emitBr(DJoin);
  B.setInsertPoint(DJoin);
  constexpr unsigned Arms = 12;
  std::vector<BlockId> ArmBlocks;
  for (unsigned A = 0; A < Arms; ++A)
    ArmBlocks.push_back(B.newBlock());
  BlockId Exit = B.newBlock();
  B.emitSwitch(S, ArmBlocks); // The interpreter wraps modulo NumTargets.
  for (unsigned A = 0; A < Arms; ++A) {
    B.setInsertPoint(ArmBlocks[A]);
    RegId C = B.emitConst(0x5851f42d4c957f2dLL + A);
    B.emitBinary(Opcode::Xor, S, C, S);
    B.emitAddImm(S, 1 + A, S);
    RegId Three = B.emitConst(3);
    RegId U = B.emitBinary(Opcode::Shl, S, Three);
    B.emitBinary(Opcode::Add, S, U, S);
    B.emitBr(Exit);
  }
  B.setInsertPoint(Exit);
  B.emitRet(S);
  B.endFunction();
  return F;
}

/// Six branch diamonds whose arms are dense straight-line work. With
/// \p Heavy the work is DivU/RemU (Div-weighted in the cost model);
/// otherwise the same shape runs unit-cost ops, giving the control
/// subject identical structure with no cost skew.
FuncId emitDense(IRBuilder &B, const std::string &Name, bool Heavy) {
  FuncId F = B.beginFunction(Name, 1);
  RegId S = B.emitMov(0);
  RegId C7 = B.emitConst(7);
  RegId C13 = B.emitConst(13);
  RegId C1 = B.emitConst(1);
  Opcode O1 = Heavy ? Opcode::DivU : Opcode::Shr;
  Opcode O2 = Heavy ? Opcode::RemU : Opcode::Xor;
  for (unsigned Seg = 0; Seg < 6; ++Seg) {
    RegId Cond = B.emitBinary(Opcode::And, S, C1);
    BlockId Then = B.newBlock(), Else = B.newBlock(), Join = B.newBlock();
    B.emitCondBr(Cond, Then, Else);
    for (BlockId Arm : {Then, Else}) {
      B.setInsertPoint(Arm);
      RegId D = B.emitBinary(O1, S, C7);
      RegId R = B.emitBinary(O2, S, C13);
      B.emitBinary(Opcode::Add, S, D, S);
      B.emitBinary(Opcode::Add, S, R, S);
      RegId D2 = B.emitBinary(O1, S, C13);
      RegId R2 = B.emitBinary(O2, S, C7);
      B.emitBinary(Opcode::Add, S, D2, S);
      B.emitBinary(Opcode::Xor, S, R2, S);
      B.emitAddImm(S, Arm == Then ? 0x51 : 0x73, S);
      B.emitBr(Join);
    }
    B.setInsertPoint(Join);
  }
  B.emitRet(S);
  B.endFunction();
  return F;
}

/// Calls \p Many \p ManyN times and \p Few \p FewN times, mixing the
/// results into the state it returns.
FuncId emitDriver(IRBuilder &B, const std::string &Name, FuncId Many,
                  unsigned ManyN, FuncId Few, unsigned FewN) {
  FuncId F = B.beginFunction(Name, 1);
  RegId S = B.emitMov(0);
  for (unsigned I = 0; I < ManyN; ++I) {
    RegId R = B.emitCall(Many, {S});
    B.emitBinary(Opcode::Xor, S, R, S);
  }
  for (unsigned I = 0; I < FewN; ++I) {
    RegId R = B.emitCall(Few, {S});
    B.emitBinary(Opcode::Add, S, R, S);
  }
  B.emitRet(S);
  B.endFunction();
  return F;
}

struct Subject {
  std::string Name;
  Module M;
  FuncId Bushy = -1, Dense = -1;
};

/// Phased main: Trips driver iterations alternating DrvA / DrvB every
/// PhaseLen, state threaded through memory so runs are deterministic.
Subject buildSubject(const std::string &Name, bool Heavy, uint64_t Trips,
                     uint64_t PhaseLen) {
  Subject S;
  S.Name = Name;
  S.M.Name = Name;
  IRBuilder B(S.M);
  S.Bushy = emitBushy(B, "bushy");
  S.Dense = emitDense(B, "dense", Heavy);
  // Phase A is bushy-heavy (8:1), phase B dense-heavy (1:4): the hot
  // *count* always points at bushy in A while the hot *cost* points at
  // dense even there when Heavy.
  FuncId DrvA = emitDriver(B, "drive_a", S.Bushy, 8, S.Dense, 1);
  FuncId DrvB = emitDriver(B, "drive_b", S.Dense, 4, S.Bushy, 1);

  FuncId Main = B.beginFunction("main", 0);
  RegId Addr = B.emitConst(3);
  RegId St = B.emitLoad(Addr);
  RegId I = B.emitConst(0);
  RegId N = B.emitConst(static_cast<int64_t>(Trips));
  RegId Len = B.emitConst(static_cast<int64_t>(PhaseLen));
  RegId One = B.emitConst(1);
  RegId OutAddr = B.emitConst(5);
  BlockId Head = B.newBlock(), Body = B.newBlock(), PhA = B.newBlock(),
          PhB = B.newBlock(), Latch = B.newBlock(), Exit = B.newBlock();
  B.emitBr(Head);
  B.setInsertPoint(Head);
  RegId Cmp = B.emitBinary(Opcode::CmpLt, I, N);
  B.emitCondBr(Cmp, Body, Exit);
  B.setInsertPoint(Body);
  RegId Ph = B.emitBinary(Opcode::DivU, I, Len);
  RegId Sel = B.emitBinary(Opcode::And, Ph, One);
  B.emitCondBr(Sel, PhB, PhA);
  B.setInsertPoint(PhA);
  RegId RA = B.emitCall(DrvA, {St});
  B.emitMov(RA, St);
  B.emitBr(Latch);
  B.setInsertPoint(PhB);
  RegId RB = B.emitCall(DrvB, {St});
  B.emitMov(RB, St);
  B.emitBr(Latch);
  B.setInsertPoint(Latch);
  B.emitBinary(Opcode::Add, I, One, I);
  B.emitBr(Head);
  B.setInsertPoint(Exit);
  B.emitStore(OutAddr, St);
  B.emitRet(St);
  B.endFunction();
  S.M.MainId = Main;

  std::string Err = verifyModule(S.M);
  if (!Err.empty()) {
    fprintf(stderr, "error: %s does not verify: %s\n", Name.c_str(),
            Err.c_str());
    exit(1);
  }
  return S;
}

void dieIfDiffers(const char *What, const Subject &S, const RunResult &Ref,
                  const RunResult &Got) {
  if (Got.ReturnValue == Ref.ReturnValue &&
      Got.MemChecksum == Ref.MemChecksum && !Got.FuelExhausted)
    return;
  fprintf(stderr, "error: %s: %s run diverges from clean\n", S.Name.c_str(),
          What);
  exit(1);
}

/// Timed trace of the clean module, decoded into the attribution
/// profile the PathTime pipeline feeds on. Phase windows are sized for
/// these small subjects so the detector produces a real report.
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
  if (!trace::collect(S.M, IR, InterpOptions(), RT, Res, Err, &Timing)) {
    fprintf(stderr, "error: %s: %s\n", S.Name.c_str(), Err.c_str());
    exit(1);
  }
  Timing.finishPhases();
  if (Timing.attributedCost() + Timing.unattributedCost() !=
      Timing.totalCost()) {
    fprintf(stderr, "error: %s: cost conservation violated\n",
            S.Name.c_str());
    exit(1);
  }
  return Timing;
}

struct PipeResult {
  FuncId FirstPick = -1;
  double FirstCover = 0;     ///< Attributed-cost share of the first pick.
  uint64_t SteadyCost = 0;   ///< Modeled cost, runs after the warm-up.
  uint64_t TotalCost = 0;    ///< Modeled cost, every rep.
  Spread WallMips, WallRatio; ///< WallRatio: wall time over clean.
  uint64_t Installed = 0, Reverted = 0;
};

struct SubjectRow {
  std::string Name;
  bool Skewed = false;
  Spread CleanMips;
  PipeResult Count, Time;
  size_t Windows = 0, Boundaries = 0;

  /// count/time modeled steady cost: >= 1 means time-weighted is no
  /// worse. Deterministic (interpreter cost model), unlike wall MIPS.
  double steadyRatio() const {
    return Time.SteadyCost > 0
               ? static_cast<double>(Count.SteadyCost) /
                     static_cast<double>(Time.SteadyCost)
               : 0;
  }
};

/// One adaptive pipeline run context: session plus pick tracking.
struct Pipeline {
  std::unique_ptr<AdaptiveSession> Sess;
  PipeResult Res;
  unsigned Runs = 0;

  /// One rep: must stay bit-identical to clean; reps after the warm-up
  /// count toward the steady-state cost.
  void run(const Subject &S, const RunResult &Ref) {
    RunResult Got = Sess->run();
    dieIfDiffers("adaptive", S, Ref, Got);
    Res.TotalCost += Got.Cost;
    if (++Runs > Warmup)
      Res.SteadyCost += Got.Cost;
    notePicks();
  }

  /// Records the controller's first-ever install. Scanning the version
  /// table would miss it: a pick whose eval window straddles a phase
  /// boundary gets reverted before the rep ends (the phase-B cost jump
  /// reads as a regression), and the table would then show only the
  /// *second* pick. AdaptStats::FirstInstall survives reverts.
  void notePicks() {
    if (Res.FirstPick < 0)
      Res.FirstPick = Sess->controller().stats().FirstInstall;
  }
};

SubjectRow measureSubject(const Subject &S) {
  SubjectRow Row;
  Row.Name = S.Name;
  InterpOptions IO;

  Interpreter Clean(S.M, IO);
  RunResult Ref = Clean.run();
  if (Ref.FuelExhausted) {
    fprintf(stderr, "error: %s: clean run exhausted fuel\n", S.Name.c_str());
    exit(1);
  }

  EdgeProfile Advice = profileClean(S.M, IO).EP;
  trace::PathTimingProfile Timing = profileTiming(S, Advice);
  Row.Windows = Timing.windows().size();
  Row.Boundaries = Timing.phaseBoundaries().size();

  // The two pipelines differ in exactly one knob pair. The cadence is
  // aggressive for these small subjects, and the revert threshold
  // generous: on a phased program epoch cost swings with the phase mix,
  // not the candidate (see bench/adaptive_steadystate).
  AdaptiveOptions Base;
  Base.EpochCalls = 512;
  Base.MinPathDelta = 4;
  Base.EvalEpochs = 2;
  Base.RevertThresholdPct = 60.0;
  Pipeline Pipes[2];
  for (int P = 0; P < 2; ++P) {
    AdaptiveOptions AO = Base;
    if (P == 1) {
      AO.Hotness = HotnessSource::PathTime;
      AO.Timing = &Timing;
    }
    Pipes[P].Sess = AdaptiveSession::create(S.M, Advice, IO, AO);
  }

  Samples Secs =
      measure({[&] { dieIfDiffers("clean", S, Ref, Clean.run()); },
               [&] { Pipes[0].run(S, Ref); }, [&] { Pipes[1].run(S, Ref); }},
              Warmup, Reps);
  double MInstrs = static_cast<double>(Ref.DynInstrs) / 1e6;
  Row.CleanMips = Secs.rate(0, MInstrs);
  for (int P = 0; P < 2; ++P) {
    Pipes[P].Res.WallMips = Secs.rate(P + 1, MInstrs);
    Pipes[P].Res.WallRatio = Secs.ratio(P + 1);
  }

  uint64_t Attributed = Timing.attributedCost();
  for (int P = 0; P < 2; ++P) {
    PipeResult &R = Pipes[P].Res;
    const AdaptStats &St = Pipes[P].Sess->controller().stats();
    R.Installed = St.VersionsInstalled;
    R.Reverted = St.VersionsReverted;
    if (R.FirstPick >= 0 && Attributed > 0) {
      auto It = Timing.functions().find(R.FirstPick);
      if (It != Timing.functions().end())
        R.FirstCover = static_cast<double>(It->second.TotalCost) /
                       static_cast<double>(Attributed);
    }
    Pipes[P].Sess->controller().flushMetrics();
  }
  Row.Count = Pipes[0].Res;
  Row.Time = Pipes[1].Res;
  return Row;
}

const char *pickName(const Subject &S, FuncId F) {
  return F >= 0 ? S.M.function(F).Name.c_str() : "-";
}

void publishRows(const std::vector<SubjectRow> &Rows) {
  obs::gauge("timing.bench.reps").set(Warmup + 2 * Reps);
  double WorstSteadyRatio = 10.0;
  double SkewedTransientGain = 0, SkewedCoverGain = 0;
  double PicksDiffer = 0;
  for (const SubjectRow &R : Rows) {
    std::string K = "timing.bench." + R.Name;
    publish(K + ".clean_mips", R.CleanMips);
    publish(K + ".count_mips", R.Count.WallMips);
    publish(K + ".time_mips", R.Time.WallMips);
    publish(K + ".count_ratio", R.Count.WallRatio);
    publish(K + ".time_ratio", R.Time.WallRatio);
    obs::gauge(K + ".count_steady_cost")
        .set(static_cast<double>(R.Count.SteadyCost));
    obs::gauge(K + ".time_steady_cost")
        .set(static_cast<double>(R.Time.SteadyCost));
    obs::gauge(K + ".steady_cost_ratio").set(R.steadyRatio());
    obs::gauge(K + ".count_first_pick")
        .set(static_cast<double>(R.Count.FirstPick));
    obs::gauge(K + ".time_first_pick")
        .set(static_cast<double>(R.Time.FirstPick));
    obs::gauge(K + ".count_first_cover").set(R.Count.FirstCover);
    obs::gauge(K + ".time_first_cover").set(R.Time.FirstCover);
    obs::gauge(K + ".windows").set(static_cast<double>(R.Windows));
    obs::gauge(K + ".phase_boundaries")
        .set(static_cast<double>(R.Boundaries));
    WorstSteadyRatio = std::min(WorstSteadyRatio, R.steadyRatio());
    if (R.Skewed) {
      PicksDiffer = R.Count.FirstPick != R.Time.FirstPick ? 1 : 0;
      SkewedTransientGain =
          R.Time.TotalCost > 0 ? static_cast<double>(R.Count.TotalCost) /
                                     static_cast<double>(R.Time.TotalCost)
                               : 0;
      SkewedCoverGain = R.Count.FirstCover > 0
                            ? R.Time.FirstCover / R.Count.FirstCover
                            : 0;
    }
  }
  // The acceptance triple: on the skewed subject the pipelines must
  // pick different first candidates, the time-weighted pick must cover
  // at least as much attributed cost, and its steady-state modeled
  // cost must be no worse anywhere.
  obs::gauge("timing.accept.picks_differ").set(PicksDiffer);
  obs::gauge("timing.accept.worst_steady_ratio").set(WorstSteadyRatio);
  obs::gauge("timing.accept.skewed_transient_gain")
      .set(SkewedTransientGain);
  obs::gauge("timing.accept.skewed_cover_gain").set(SkewedCoverGain);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_timing.json";
  bool Json = jsonFlag(argc, argv, JsonPath);

  printf("Time-weighted vs. count-based candidate picks (%u warm-up runs + "
         "%u steady blocked reps; modeled cost is deterministic, wall MIPS "
         "informational; every run checked bit-identical to clean)\n\n",
         Warmup, Reps);

  std::vector<Subject> Subjects;
  // PhaseLen is sized so the controller's first pick epoch (epoch 2:
  // epoch 1 only establishes the cost baseline) falls entirely inside
  // the bushy-heavy opening phase: 10 profiled calls per iteration *
  // 128 iterations = 1280 calls > 2 * EpochCalls.
  Subjects.push_back(buildSubject("skewed", /*Heavy=*/true, 384, 128));
  Subjects.back().Name = "skewed";
  Subjects.push_back(buildSubject("uniform", /*Heavy=*/false, 384, 128));

  printf("%-10s%12s%12s%12s%8s  %-18s%8s%8s\n", "bench", "count-mips",
         "time-mips", "steadyratio", "phases", "first pick (cnt/time)",
         "cover-c", "cover-t");
  std::vector<SubjectRow> Rows;
  for (size_t I = 0; I < Subjects.size(); ++I) {
    const Subject &S = Subjects[I];
    SubjectRow R = measureSubject(S);
    R.Skewed = I == 0;
    std::string Picks = std::string(pickName(S, R.Count.FirstPick)) + "/" +
                        pickName(S, R.Time.FirstPick);
    printf("%-10s%12.2f%12.2f%12.4f%8zu  %-18s%8.3f%8.3f\n",
           R.Name.c_str(), R.Count.WallMips.Median, R.Time.WallMips.Median,
           R.steadyRatio(), R.Boundaries + 1, Picks.c_str(),
           R.Count.FirstCover, R.Time.FirstCover);
    Rows.push_back(std::move(R));
  }

  // Hard acceptance on the deterministic quantities.
  const SubjectRow &Skewed = Rows[0];
  if (Skewed.Count.FirstPick == Skewed.Time.FirstPick) {
    fprintf(stderr, "error: skewed subject: both pipelines picked the "
                    "same first candidate\n");
    return 1;
  }
  if (Skewed.Time.SteadyCost > Skewed.Count.SteadyCost) {
    fprintf(stderr,
            "error: skewed subject: time-weighted steady cost %llu "
            "exceeds count-based %llu\n",
            static_cast<unsigned long long>(Skewed.Time.SteadyCost),
            static_cast<unsigned long long>(Skewed.Count.SteadyCost));
    return 1;
  }
  if (Skewed.Time.FirstCover < Skewed.Count.FirstCover) {
    fprintf(stderr, "error: skewed subject: time-weighted first pick "
                    "covers less attributed cost than count-based\n");
    return 1;
  }

  if (Json) {
    publishRows(Rows);
    writeReport(JsonPath, "timing.");
  }
  return 0;
}
