//===- perfbench/Online.cpp - online_int workload -------------------------===//
///
/// \file
/// One closed-loop client on one thread issues profile cycles back to
/// back, rotating through every (module, profiler) pair. A cycle is what
/// an online optimizer does per module: instrument, run the profiled
/// program (or record a trace and decode it), build the estimated path
/// profile, and export the run's counters into the process's profile
/// store (a default serve::Aggregator, one identity per pair). The store
/// is decayed and asked for its hottest paths on the schedule of
/// ppp_served's ingest benchmark (tools/ppp_served.cpp): every 100 ms,
/// decay() then hottestPaths(16), here between cycles. Every cycle's
/// outputs are checked after its timer stops.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"
#include "Stats.h"

#include "metrics/Metrics.h"
#include "pathprof/EstimatedProfile.h"
#include "serve/Aggregator.h"
#include "trace/TraceDecoder.h"

#include <cstdio>

using namespace pb;
using namespace ppp;

namespace {

/// The store's decay-and-query period and rows per query, as in
/// tools/ppp_served.cpp.
constexpr uint64_t QueryPeriodNs = 100'000'000;
constexpr unsigned HotK = 16;

/// Wall times of one cycle's steps, in ms.
struct CycleTimes {
  double Total = 0, Instrument = 0, Decode = 0, Estimate = 0, Merge = 0;
  uint64_t Merges = 0;
};

/// Everything kept per (module, profiler) pair across cycles.
struct Pair {
  const PreparedModule *Mod = nullptr;
  const ProfilerOptions *Prof = nullptr;
  const Pair *PppRef = nullptr; ///< Same module's ppp pair (trace only).
  uint16_t StoreId = 0;         ///< Identity in the profile store.

  bool Seen = false;
  double Accuracy = 0, Coverage = 0;
  std::string Counts; ///< First cycle's countsFromRun encoding.

  // Layer work of the first cycle (deterministic per pair).
  double FuncsInstrumented = 0, FuncsHashed = 0, StaticOps = 0, Paths = 0;
  double Stored = 0, Lost = 0, Cold = 0, Useful = 0, Attempts = 0;
  double PathsEstimated = 0, RecordBytes = 0, Events = 0;

  // Traced-window step times.
  std::vector<double> InstrumentMs, DecodeMs, EstimateMs;
};

/// PP counts every path of an array-organized routine exactly, so its
/// decoded profile must equal the oracle path tracer's there.
bool matchesOracle(const InstrumentationResult &IR, const PathProfile &Measured,
                   const PathProfile &Oracle) {
  for (size_t F = 0; F < IR.Plans.size(); ++F) {
    const FunctionPlan &Plan = IR.Plans[F];
    if (!Plan.Instrumented || Plan.TableKind != PathTable::Kind::Array)
      continue;
    const FunctionPathProfile &M = Measured.Funcs[F], &O = Oracle.Funcs[F];
    if (M.Paths.size() != O.Paths.size())
      return false;
    for (const PathRecord &Rec : O.Paths) {
      const PathRecord *Got = M.find(Rec.Key);
      if (!Got || Got->Freq != Rec.Freq)
        return false;
    }
  }
  return true;
}

/// Runs one profile cycle of \p P and checks it. Returns false (after
/// printing why) when any check fails.
bool cycle(Pair &P, serve::Aggregator &Store, CycleTimes &T) {
  const bench::PreparedBenchmark &B = P.Mod->B;
  const ProfilerOptions &Opts = *P.Prof;
  InterpOptions IO;
  IO.Costs = B.Costs;

  Span Cycle("cycle");
  Span Instr("instrument");
  InstrumentationResult IR = instrumentModule(B.Expanded, B.EP, Opts);
  T.Instrument = Instr.end();

  ProfileRuntime RT = IR.makeRuntime();
  RunResult Res;
  bool Decoded = true;
  std::string DecodeError;
  trace::DecodeStats DS;
  uint64_t RecordBytes = 0;
  if (Opts.TraceBackend) {
    trace::TraceRecorder Rec;
    {
      Span Run("run");
      Interpreter I(B.Expanded, IO);
      I.setTraceRecorder(&Rec);
      Res = I.run();
    }
    Span Decode("decode");
    trace::TraceDecoder Dec(B.Expanded, IR, B.Costs);
    Decoded = Dec.decode(Rec.recording(), RT, DS, DecodeError);
    T.Decode = Decode.end();
    RecordBytes = Rec.recording().TotalBytes;
  } else {
    Span Run("run");
    Interpreter I(IR.Instrumented, IO);
    I.setProfileRuntime(&RT);
    Res = I.run();
  }

  Span Est("estimate");
  ProfilerRunData Run = buildEstimatedProfile(B.Expanded, B.EP, IR, RT);
  T.Estimate = Est.end();

  Span Export("export");
  CountsMessage Msg = countsFromRun(B.Name, IR, RT, &B.EP);
  Export.end();
  Span Merge("merge");
  T.Merges = Store.ingest(P.StoreId, Msg);
  T.Merge = Merge.end();
  T.Total = Cycle.end();

  // Checks, outside the cycle's time.
  std::string Why;
  std::string Enc = writeCountsBinary(Msg);
  double Acc =
      computeAccuracy(B.Oracle, Run.Estimated, FlowMetric::Branch).Accuracy;
  double Cov =
      computeProfilerCoverage(IR, Run, B.Oracle, FlowMetric::Branch).Coverage;
  if (Res.FuelExhausted || Res.ReturnValue != P.Mod->Clean.ReturnValue ||
      Res.MemChecksum != P.Mod->Clean.MemChecksum)
    Why = "profiled run's output differs from the clean run";
  else if (!Decoded)
    Why = "trace decode failed: " + DecodeError;
  else if (P.Seen && (Enc != P.Counts || Acc != P.Accuracy ||
                      Cov != P.Coverage))
    Why = "counters, accuracy or coverage differ from the first cycle";
  else if (P.PppRef && (!P.PppRef->Seen || Enc != P.PppRef->Counts))
    Why = "trace counters differ from the ppp counter backend";
  else if (Opts.Name == "pp" && !matchesOracle(IR, Run.Measured, B.Oracle))
    Why = "pp counts differ from the oracle path tracer";
  if (!Why.empty()) {
    fprintf(stderr, "perfbench: cycle %s/%s failed: %s\n", B.Name.c_str(),
            Opts.Name.c_str(), Why.c_str());
    return false;
  }
  if (P.Seen)
    return true;

  P.Seen = true;
  P.Counts = std::move(Enc);
  P.Accuracy = Acc;
  P.Coverage = Cov;
  for (size_t F = 0; F < IR.Plans.size(); ++F) {
    const FunctionPlan &Plan = IR.Plans[F];
    if (!Plan.Instrumented)
      continue;
    P.FuncsInstrumented += 1;
    P.FuncsHashed += Plan.TableKind == PathTable::Kind::Hash;
    P.StaticOps += static_cast<double>(Plan.StaticOps);
    P.Paths += static_cast<double>(Plan.NumPaths);
    // Attempted counting ops: retained, lost to hash conflicts, invalid,
    // or spilled by checked poisoning. Useful: retained and decoded to
    // an instrumented path.
    uint64_t Spilled = RT.table(static_cast<FuncId>(F)).coldCheckedCount();
    P.Stored += static_cast<double>(Run.FuncStored[F]);
    P.Lost += static_cast<double>(Run.FuncLost[F]);
    P.Cold += static_cast<double>(Run.FuncCold[F]);
    P.Attempts += static_cast<double>(Run.FuncStored[F] + Run.FuncLost[F] +
                                      Run.FuncInvalid[F] + Spilled);
    P.Useful +=
        static_cast<double>(Run.FuncStored[F] - (Run.FuncCold[F] - Spilled));
  }
  P.PathsEstimated = static_cast<double>(Run.Estimated.distinctPaths() -
                                         Run.Measured.distinctPaths());
  P.RecordBytes = static_cast<double>(RecordBytes);
  P.Events = static_cast<double>(DS.CondEvents + DS.SwitchEvents);
  return true;
}

/// Samples from the timed part of a run.
struct Samples {
  std::vector<double> CycleMs, QueryMs;
  // Per rotation: cycles per second of cycle time, and counter merges
  // per second of store-ingest time.
  std::vector<double> RotationRates, MergeRates;
};

/// The profile store and its query schedule.
struct Store {
  serve::Aggregator Agg;
  uint64_t NextQueryNs = 0;

  /// After a cycle: decays and queries the store if a query is due.
  void maybeQuery(Samples *S, Report &R) {
    if (nowNs() < NextQueryNs)
      return;
    Span Decay("decay");
    Agg.decay();
    Decay.end();
    Span Query("query");
    std::vector<serve::NamedRow> Hot = Agg.hottestPaths(HotK);
    double QueryMs = Query.end();
    NextQueryNs = nowNs() + QueryPeriodNs;
    bool Ordered = !Hot.empty();
    for (size_t J = 1; J < Hot.size(); ++J)
      Ordered &= Hot[J - 1].Count >= Hot[J].Count;
    if (!Ordered)
      R.fail("profile store returned no or unordered hottest paths");
    if (S)
      S->QueryMs.push_back(QueryMs);
  }
};

/// One cycle of every pair, each followed by a store query when one is
/// due; recorded into \p S when non-null.
void rotation(std::vector<Pair> &Pairs, Store &St, Samples *S,
              uint64_t &NextUnit, Report &R) {
  double RotationMs = 0, MergeMs = 0;
  uint64_t Merges = 0;
  for (Pair &P : Pairs) {
    setUnit(NextUnit++);
    CycleTimes T;
    R.attempt(cycle(P, St.Agg, T));
    RotationMs += T.Total;
    St.maybeQuery(S, R);
    if (!S)
      continue;
    S->CycleMs.push_back(T.Total);
    MergeMs += T.Merge;
    Merges += T.Merges;
    if (tracing()) {
      P.InstrumentMs.push_back(T.Instrument);
      P.EstimateMs.push_back(T.Estimate);
      if (P.Prof->TraceBackend)
        P.DecodeMs.push_back(T.Decode);
    }
  }
  if (!S)
    return;
  S->RotationRates.push_back(static_cast<double>(Pairs.size()) /
                             (RotationMs / 1e3));
  S->MergeRates.push_back(static_cast<double>(Merges) / (MergeMs / 1e3));
}

} // namespace

void pb::runOnline(const RunOptions &O, Report &R) {
  setTracing(O.Trace);
  SuiteSetup Setup = prepareSuiteMedian(suiteRecipes(O.Seed), R);
  setTracing(false);

  std::vector<ProfilerOptions> Profs = cycleProfilers();
  std::vector<Pair> Pairs;
  for (const PreparedModule &M : Setup.Mods)
    for (const ProfilerOptions &P : Profs) {
      Pairs.emplace_back();
      Pairs.back().Mod = &M;
      Pairs.back().Prof = &P;
    }
  // Rotation order is pp, tpp, ppp, trace per module, so each trace
  // pair's ppp reference has run by the time it is checked.
  for (size_t I = 0; I < Pairs.size(); ++I)
    if (Pairs[I].Prof->TraceBackend)
      for (size_t J = I - I % Profs.size(); J < I; ++J)
        if (Pairs[J].Prof->Name == "ppp")
          Pairs[I].PppRef = &Pairs[J];

  Store St;
  for (Pair &P : Pairs)
    P.StoreId = St.Agg.internBenchmark(P.Mod->B.Name + "/" + P.Prof->Name);

  uint64_t Unit = 1;
  rotation(Pairs, St, nullptr, Unit, R); // Warm-up.

  // Rotations until the time is up, each followed by the blocked run
  // comparison of the next module, so both sample the whole run.
  BlockedComparison Blocked(Setup.Mods, Profs);
  auto Window = [&](double Seconds, Samples &S) {
    uint64_t T0 = nowNs();
    do {
      rotation(Pairs, St, &S, Unit, R);
      Blocked.step(R);
    } while (msBetween(T0, nowNs()) < Seconds * 1e3);
  };
  Samples Timed;
  if (!O.Trace) {
    Window(O.Seconds, Timed);
  } else {
    // Untraced and traced windows in ABBA order; per-layer times come
    // from the traced windows, the difference in rate is the overhead.
    Samples Untraced;
    for (int W = 0; W < 4; ++W) {
      bool Traced = W == 1 || W == 2;
      setTracing(Traced);
      Window(O.Seconds / 4, Traced ? Timed : Untraced);
    }
    setTracing(false);
    R.set("tracing.overhead_frac", 1 - median(Timed.RotationRates) /
                                           median(Untraced.RotationRates));
    reportSelfTimes(R,
                    {"cycle", "instrument", "run", "decode", "estimate",
                     "query", "decay", "export", "merge"},
                    static_cast<double>(Timed.CycleMs.size()));
  }
  Blocked.cover(R);
  Blocked.report(R);

  Tail CycleTail = tailOf(Timed.CycleMs), QueryTail = tailOf(Timed.QueryMs);
  printf("cycle_tail_ms is p%g of %zu cycles, query_tail_ms is p%g of %zu "
         "queries\n",
         CycleTail.Percentile, Timed.CycleMs.size(), QueryTail.Percentile,
         Timed.QueryMs.size());
  R.set("cycles_per_s", median(Timed.RotationRates));
  R.set("cycle_p50_ms", median(Timed.CycleMs));
  R.set("cycle_tail_ms", CycleTail.Value);
  R.set("query_p50_ms", median(Timed.QueryMs));
  R.set("query_tail_ms", QueryTail.Value);
  R.set("merges_per_s", median(Timed.MergeRates));

  // Per-profiler layer work: summed over modules, times as the sum of
  // per-module medians (ms per pass over the suite).
  for (const ProfilerOptions &Prof : Profs) {
    const std::string &N = Prof.Name;
    auto Sum = [&](double Pair::*Field) {
      double S = 0;
      for (const Pair &P : Pairs)
        if (P.Prof->Name == N)
          S += P.*Field;
      return S;
    };
    auto SumOfMedians = [&](std::vector<double> Pair::*Field) {
      double S = 0;
      for (const Pair &P : Pairs)
        if (P.Prof->Name == N)
          S += median(P.*Field);
      return S;
    };
    R.set("pathprof.instrument_ms." + N, SumOfMedians(&Pair::InstrumentMs));
    R.set("flow.estimate_ms." + N, SumOfMedians(&Pair::EstimateMs));
    R.set("pathprof.funcs_instrumented." + N, Sum(&Pair::FuncsInstrumented));
    R.set("pathprof.funcs_hashed." + N, Sum(&Pair::FuncsHashed));
    R.set("pathprof.static_ops." + N, Sum(&Pair::StaticOps));
    R.set("pathprof.paths." + N, Sum(&Pair::Paths));
    R.set("interp.stored." + N, Sum(&Pair::Stored));
    R.set("interp.lost." + N, Sum(&Pair::Lost));
    R.set("interp.cold." + N, Sum(&Pair::Cold));
    R.set("flow.paths_estimated." + N, Sum(&Pair::PathsEstimated));
    double Attempts = Sum(&Pair::Attempts);
    R.set("interp.stored_frac." + N,
          Attempts > 0 ? Sum(&Pair::Useful) / Attempts : 0);
    if (!Prof.TraceBackend)
      continue;
    double DecodeMs = SumOfMedians(&Pair::DecodeMs);
    double Events = Sum(&Pair::Events);
    R.set("trace.decode_ms", DecodeMs);
    R.set("trace.record_bytes", Sum(&Pair::RecordBytes));
    R.set("trace.events", Events);
    R.set("trace.decode_eps", DecodeMs > 0 ? Events / (DecodeMs / 1e3) : 0);
  }
}
