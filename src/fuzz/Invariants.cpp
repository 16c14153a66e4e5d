//===- fuzz/Invariants.cpp - Differential invariant checking ---------------===//

#include "fuzz/Invariants.h"

#include "adapt/AdaptiveSession.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "metrics/Metrics.h"
#include "pathprof/EstimatedProfile.h"
#include "pathprof/Profilers.h"
#include "profile/BinaryIO.h"
#include "profile/Collectors.h"
#include "support/Format.h"
#include "trace/PathTiming.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceIO.h"

#include <set>
#include <sstream>

using namespace ppp;
using namespace ppp::fuzz;

std::string InvariantReport::summary(unsigned MaxLines) const {
  std::ostringstream Out;
  unsigned Shown = 0;
  for (const InvariantFailure &F : Failures) {
    if (Shown++ == MaxLines) {
      Out << "  ... and " << (Failures.size() - MaxLines) << " more\n";
      break;
    }
    Out << "  [" << F.Check << "] " << F.Detail << "\n";
  }
  return Out.str();
}

namespace {

/// Compares two path profiles field-by-field (Key, Freq, Branches,
/// Instrs); PathRecord has no operator== over containers we can lean
/// on at the profile level because the read-back record order is not
/// pinned.
bool samePathProfile(const PathProfile &A, const PathProfile &B,
                     std::string &Why) {
  if (A.Funcs.size() != B.Funcs.size()) {
    Why = "function count differs";
    return false;
  }
  for (size_t FI = 0; FI < A.Funcs.size(); ++FI) {
    const FunctionPathProfile &FA = A.Funcs[FI];
    const FunctionPathProfile &FB = B.Funcs[FI];
    if (FA.Paths.size() != FB.Paths.size()) {
      Why = formatString("function %zu: %zu paths vs %zu", FI,
                         FA.Paths.size(), FB.Paths.size());
      return false;
    }
    for (const PathRecord &R : FA.Paths) {
      const PathRecord *O = FB.find(R.Key);
      if (!O || O->Freq != R.Freq || O->Branches != R.Branches ||
          O->Instrs != R.Instrs) {
        Why = formatString("function %zu: path record mismatch", FI);
        return false;
      }
    }
  }
  return true;
}

void checkRoundTrips(const Module &M, const CleanProfile &Clean,
                     InvariantReport &Rep) {
  std::string Err;
  Module M2;
  ++Rep.ChecksRun;
  if (!readModuleBinary(writeModuleBinary(M), M2, Err))
    Rep.fail("roundtrip.module", "read failed: " + Err);
  else if (!(M2 == M))
    Rep.fail("roundtrip.module", "module not field-identical");

  EdgeProfile EP2;
  ++Rep.ChecksRun;
  if (!readEdgeProfileBinary(M, writeEdgeProfileBinary(M, Clean.EP), EP2,
                             Err))
    Rep.fail("roundtrip.edgeprofile", "read failed: " + Err);
  else if (!(EP2 == Clean.EP))
    Rep.fail("roundtrip.edgeprofile", "profile not field-identical");

  PathProfile PP2(0);
  std::string Why;
  ++Rep.ChecksRun;
  if (!readPathProfileBinary(M, writePathProfileBinary(M, Clean.Oracle), PP2,
                             Err))
    Rep.fail("roundtrip.pathprofile", "read failed: " + Err);
  else if (!samePathProfile(Clean.Oracle, PP2, Why))
    Rep.fail("roundtrip.pathprofile", Why);
}

/// DF from the edge profile alone must never exceed the oracle's
/// frequency for any individual path (definite flow is a lower bound
/// when the advice profile is exact).
void checkDefiniteFlowBound(const Module &M, const CleanProfile &Clean,
                            InvariantReport &Rep) {
  PathProfile DF = estimateFromEdgeProfile(M, Clean.EP, FlowKind::Definite,
                                           /*CutoffFlow=*/0,
                                           FlowMetric::Unit);
  ++Rep.ChecksRun;
  for (size_t FI = 0; FI < DF.Funcs.size(); ++FI) {
    for (const PathRecord &R : DF.Funcs[FI].Paths) {
      const PathRecord *Actual =
          FI < Clean.Oracle.Funcs.size() ? Clean.Oracle.Funcs[FI].find(R.Key)
                                         : nullptr;
      uint64_t ActualFreq = Actual ? Actual->Freq : 0;
      if (R.Freq > ActualFreq) {
        Rep.fail("df.lower_bound",
                 formatString("function %zu: DF %llu > oracle %llu", FI,
                              (unsigned long long)R.Freq,
                              (unsigned long long)ActualFreq));
        return;
      }
    }
  }
}

/// The counter backend's run of \p IR's instrumented module over \p RT
/// under \p Fuel. Checks that it terminates (<Tag>.terminates) and that
/// the interp.op.* counts derived from the clean edge profile, through
/// lowering's block mapping, sum to the instructions it executed
/// (<Tag>.derived_ops). Returns false on a hang.
bool runCounters(const InstrumentationResult &IR, const CleanProfile &Clean,
                 uint64_t Fuel, ProfileRuntime &RT, RunResult &Res,
                 const std::string &Tag, InvariantReport &Rep) {
  InterpOptions IO;
  IO.Fuel = Fuel;
  Interpreter I(IR.Instrumented, IO);
  I.setProfileRuntime(&RT);
  Res = I.run();
  ++Rep.ChecksRun;
  if (Res.FuelExhausted) {
    Rep.fail(Tag + ".terminates", "instrumented run exhausted fuel");
    return false;
  }
  uint64_t Sum = 0;
  for (uint64_t N : deriveOpCounts(IR.Instrumented, IR.blockFreqs(Clean.EP)))
    Sum += N;
  ++Rep.ChecksRun;
  if (Sum != Res.DynInstrs)
    Rep.fail(Tag + ".derived_ops",
             formatString("derived interp.op.* sum %llu, run executed %llu "
                          "instructions",
                          (unsigned long long)Sum,
                          (unsigned long long)Res.DynInstrs));
  return true;
}

void checkOneProfiler(const Module &M, const CleanProfile &Clean,
                      const ProfilerOptions &Opts, uint64_t Fuel,
                      InvariantReport &Rep) {
  auto Tag = [&](const char *Check) { return Opts.Name + "." + Check; };

  InstrumentationResult IR = instrumentModule(M, Clean.EP, Opts);
  ProfileRuntime RT = IR.makeRuntime();
  RunResult Res;
  if (!runCounters(IR, Clean, Fuel, RT, Res, Opts.Name, Rep))
    return;
  ++Rep.ChecksRun;
  if (Res.ReturnValue != Clean.Res.ReturnValue)
    Rep.fail(Tag("semantics"),
             formatString("return value %lld vs clean %lld",
                          (long long)Res.ReturnValue,
                          (long long)Clean.Res.ReturnValue));
  ++Rep.ChecksRun;
  if (Res.MemChecksum != Clean.Res.MemChecksum)
    Rep.fail(Tag("semantics"), "memory checksum diverged");

  bool IsPP = !Opts.LocalColdCriterion && !Opts.GlobalColdCriterion &&
              !Opts.SkipObviousRoutines && !Opts.LowCoverageGate &&
              !Opts.ObviousLoopDisconnect;

  for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
    FuncId F = static_cast<FuncId>(FI);
    const FunctionPlan &Plan = IR.Plans[FI];
    const PathTable &T = RT.table(F);
    const FunctionPathProfile &Oracle = Clean.Oracle.Funcs[FI];

    ++Rep.ChecksRun;
    if (T.invalidCount() != 0)
      Rep.fail(Tag("no_invalid"),
               formatString("function %u: %llu out-of-range indices", FI,
                            (unsigned long long)T.invalidCount()));
    if (!Plan.Instrumented)
      continue;

    // Index-range invariant: hot counters live in [0, N), poisoned
    // counters in [N, 3N), and a hot index must decode to a path whose
    // number round-trips.
    uint64_t N = Plan.NumPaths;
    uint64_t StoredTotal = 0;
    bool RangeOk = true, DecodeOk = true;
    T.forEach([&](int64_t Idx, uint64_t Count) {
      StoredTotal += Count;
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= 3 * N) {
        RangeOk = false;
        return;
      }
      if (static_cast<uint64_t>(Idx) < N) {
        auto Key = Plan.decodePath(static_cast<uint64_t>(Idx));
        if (!Key || Plan.pathNumberOf(*Key) !=
                        std::optional<uint64_t>(static_cast<uint64_t>(Idx)))
          DecodeOk = false;
      }
    });
    ++Rep.ChecksRun;
    if (!RangeOk)
      Rep.fail(Tag("index_range"),
               formatString("function %u: counter index outside [0, 3N) "
                            "with N=%llu",
                            FI, (unsigned long long)N));
    ++Rep.ChecksRun;
    if (!DecodeOk)
      Rep.fail(Tag("decode_roundtrip"),
               formatString("function %u: hot index failed decode/number "
                            "round-trip",
                            FI));

    // Path-sum preservation: event counting fires exactly one count at
    // every completed path's end, so totals match the oracle exactly
    // when the whole DAG was kept. Cold-edge removal keeps the end
    // counts (cold executions land poisoned) but pushing may fire
    // extra increments on them (the overcount penalty of Sec. 6.2), so
    // with cold edges the totals only promise "never less". Obvious-
    // loop disconnection removes the back-edge path boundary outright
    // -- those segments are intentionally unmeasured and no total
    // bound survives.
    uint64_t Accounted = StoredTotal + T.lostCount() + T.coldCheckedCount();
    uint64_t OracleTotal = Oracle.totalFreq();
    if (Plan.DisconnectedBackEdges.empty()) {
      ++Rep.ChecksRun;
      if (Plan.ColdEdges.empty()) {
        if (Accounted != OracleTotal)
          Rep.fail(Tag("path_sum"),
                   formatString("function %u: accounted %llu != oracle %llu",
                                FI, (unsigned long long)Accounted,
                                (unsigned long long)OracleTotal));
      } else if (Accounted < OracleTotal) {
        Rep.fail(Tag("path_sum"),
                 formatString("function %u: accounted %llu < oracle %llu "
                              "despite overcounting being the only slack",
                              FI, (unsigned long long)Accounted,
                              (unsigned long long)OracleTotal));
      }
    }

    // Per-path bounds against the oracle.
    bool Hashed = Plan.TableKind == PathTable::Kind::Hash;
    for (const PathRecord &Rec : Oracle.Paths) {
      std::optional<uint64_t> Num = Plan.pathNumberOf(Rec.Key);
      if (!Num)
        continue;
      uint64_t Measured = T.countFor(static_cast<int64_t>(*Num));
      if (IsPP) {
        // PP instruments every path exactly; for hash tables a stored
        // slot is exact and misses are covered by the lost counter.
        ++Rep.ChecksRun;
        if (Hashed ? (Measured != 0 && Measured != Rec.Freq)
                   : (Measured != Rec.Freq)) {
          Rep.fail(Tag("pp_exact"),
                   formatString("function %u path %llu: measured %llu != "
                                "oracle %llu",
                                FI, (unsigned long long)*Num,
                                (unsigned long long)Measured,
                                (unsigned long long)Rec.Freq));
          break;
        }
      } else if (!Hashed) {
        // Cold executions may overcount a hot path (push-through-cold)
        // but may never undercount it.
        ++Rep.ChecksRun;
        if (Measured < Rec.Freq) {
          Rep.fail(Tag("no_undercount"),
                   formatString("function %u path %llu: measured %llu < "
                                "oracle %llu",
                                FI, (unsigned long long)*Num,
                                (unsigned long long)Measured,
                                (unsigned long long)Rec.Freq));
          break;
        }
      }
    }
  }

  // Estimated profile + metric sanity.
  ProfilerRunData Run = buildEstimatedProfile(M, Clean.EP, IR, RT);
  ++Rep.ChecksRun;
  if (Run.InvalidCounts != 0)
    Rep.fail(Tag("no_invalid"), "estimated profile saw invalid counts");

  CoverageResult Cov =
      computeProfilerCoverage(IR, Run, Clean.Oracle, FlowMetric::Unit);
  ++Rep.ChecksRun;
  if (!(Cov.Coverage >= 0.0 && Cov.Coverage <= 1.0))
    Rep.fail(Tag("coverage_bounds"),
             formatString("coverage %f outside [0, 1]", Cov.Coverage));

  AccuracyResult Acc = computeAccuracy(Clean.Oracle, Run.Estimated,
                                       FlowMetric::Unit);
  ++Rep.ChecksRun;
  if (!(Acc.Accuracy >= 0.0 && Acc.Accuracy <= 1.0))
    Rep.fail(Tag("accuracy_bounds"),
             formatString("accuracy %f outside [0, 1]", Acc.Accuracy));

  InstrumentedFraction Frac =
      computeInstrumentedFraction(IR, Clean.Oracle);
  ++Rep.ChecksRun;
  if (!(Frac.Total >= 0.0 && Frac.Total <= 1.0) ||
      !(Frac.Hashed >= 0.0 && Frac.Hashed <= Frac.Total + 1e-12))
    Rep.fail(Tag("fraction_bounds"),
             formatString("instrumented fraction total=%f hashed=%f",
                          Frac.Total, Frac.Hashed));
}

/// Counts, on the clean module, the chain flushes every chained
/// function must emit. Each crossing of an instrumented back edge (one
/// with a LoopExit dummy in the plan's DAG) executes one chain step, so
/// an activation with t crossings flushes floor(t / K) + 1 ids: one
/// every K-th step plus the Ret flush. Counts stay pinned on the dummy
/// exit edges under chaining (no push movement), which is what makes
/// this exact even in routines with cold edges.
class ChainFlushOracle : public ExecObserver {
public:
  explicit ChainFlushOracle(const InstrumentationResult &IR)
      : Expected(IR.Plans.size(), 0), Backs(IR.Plans.size()),
        Ks(IR.Plans.size(), 1), Cfgs(IR.Plans.size(), nullptr) {
    for (size_t FI = 0; FI < IR.Plans.size(); ++FI) {
      const FunctionPlan &P = IR.Plans[FI];
      if (!P.chained())
        continue;
      Ks[FI] = P.KEffective;
      Cfgs[FI] = P.Cfg.get();
      for (const DagEdge &E : P.Dag->edges())
        if (E.Kind == DagEdgeKind::LoopExit)
          Backs[FI].insert(E.CfgEdgeId);
    }
  }

  void onFunctionEnter(FuncId F) override { Stack.push_back({F, 0}); }

  void onEdge(FuncId F, BlockId Src, unsigned SuccIdx) override {
    size_t FI = static_cast<size_t>(F);
    if (Backs[FI].empty())
      return;
    int Id = Cfgs[FI]->edgeIdFor(Src, SuccIdx);
    if (Backs[FI].count(Id))
      ++Stack.back().Crossings;
  }

  void onFunctionExit(FuncId F) override {
    size_t FI = static_cast<size_t>(F);
    if (!Stack.empty()) {
      if (Ks[FI] > 1)
        Expected[FI] += Stack.back().Crossings / Ks[FI] + 1;
      Stack.pop_back();
    }
  }

  std::vector<uint64_t> Expected; ///< Flushes per function.

private:
  struct ActFrame {
    FuncId F = -1;
    uint64_t Crossings = 0;
  };
  std::vector<std::set<int>> Backs;
  std::vector<uint64_t> Ks;
  std::vector<const CfgView *> Cfgs;
  std::vector<ActFrame> Stack;
};

/// The k-iteration battery. Backend demotions must be total (a chained
/// request on checked poisoning counts exactly like the plain preset);
/// for k in {2, 4} on the ppp plan, a chained run must preserve
/// semantics, keep every stored id inside [1, IdBound), re-encode every
/// decodable id from its decoded segments, honor the demotion
/// invariants (reason recorded implies KEffective back at 1, never a
/// wrapped id space), and conserve events: per chained function,
/// stored + lost counts equal the flush oracle's total exactly -- the
/// per-k path-sum-conservation invariant.
void checkKIter(const Module &M, const CleanProfile &Clean, uint64_t Fuel,
                InvariantReport &Rep) {
  // Checked poisoning cannot chain: the k request must demote per
  // function and count bit-identically to the plain preset.
  {
    InstrumentationResult Plain =
        instrumentModule(M, Clean.EP, ProfilerOptions::tppChecked());
    ProfilerOptions KOpts = ProfilerOptions::tppChecked();
    KOpts.Name += "+kiter2";
    KOpts.KIterations = 2;
    InstrumentationResult Chained = instrumentModule(M, Clean.EP, KOpts);
    CountsMessage Msgs[2];
    bool Ran = true;
    for (int X = 0; X < 2; ++X) {
      const InstrumentationResult &IR = X == 0 ? Plain : Chained;
      ProfileRuntime RT = IR.makeRuntime();
      RunResult Res;
      if (!runCounters(IR, Clean, Fuel, RT, Res, "kiter.checked", Rep)) {
        Ran = false;
        break;
      }
      Msgs[X] = countsFromRun(M.Name, IR, RT);
    }
    ++Rep.ChecksRun;
    if (Ran && !(Msgs[0] == Msgs[1]))
      Rep.fail("kiter.checked.demotes",
               "k=2 under checked poisoning did not count like the plain "
               "preset");
    for (size_t FI = 0; Ran && FI < Chained.Plans.size(); ++FI) {
      const FunctionPlan &P = Chained.Plans[FI];
      ++Rep.ChecksRun;
      if (P.KEffective != 1 ||
          (P.Instrumented && P.KDemote != KDemoteReason::CheckedPoisoning))
        Rep.fail("kiter.checked.reason",
                 formatString("function %zu: KEffective=%llu demote=%s", FI,
                              (unsigned long long)P.KEffective,
                              kDemoteReasonName(P.KDemote)));
    }
  }

  for (uint64_t K : {uint64_t(2), uint64_t(4)}) {
    ProfilerOptions Opts = ProfilerOptions::ppp();
    Opts.Name += formatString("+kiter%llu", (unsigned long long)K);
    Opts.KIterations = K;
    auto Tag = [&](const char *Check) { return Opts.Name + "." + Check; };

    InstrumentationResult IR = instrumentModule(M, Clean.EP, Opts);

    // Flush oracle: replay the clean module watching instrumented back
    // edges (known to terminate; the clean battery ran first).
    ChainFlushOracle Oracle(IR);
    {
      InterpOptions IO;
      IO.Fuel = Fuel;
      Interpreter CI(M, IO);
      CI.addObserver(&Oracle);
      CI.run();
    }

    ProfileRuntime RT = IR.makeRuntime();
    RunResult Res;
    if (!runCounters(IR, Clean, Fuel * 2, RT, Res, Opts.Name, Rep))
      continue;
    ++Rep.ChecksRun;
    if (Res.ReturnValue != Clean.Res.ReturnValue ||
        Res.MemChecksum != Clean.Res.MemChecksum)
      Rep.fail(Tag("semantics"), "chained run diverged from the clean run");

    for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
      const FunctionPlan &Plan = IR.Plans[FI];
      const PathTable &T = RT.table(static_cast<FuncId>(FI));

      ++Rep.ChecksRun;
      if (Plan.KRequested != K)
        Rep.fail(Tag("requested"),
                 formatString("function %u: KRequested=%llu", FI,
                              (unsigned long long)Plan.KRequested));
      ++Rep.ChecksRun;
      if (Plan.KDemote != KDemoteReason::None && Plan.KEffective != 1)
        Rep.fail(Tag("demote"),
                 formatString("function %u: demoted (%s) but KEffective=%llu",
                              FI, kDemoteReasonName(Plan.KDemote),
                              (unsigned long long)Plan.KEffective));
      ++Rep.ChecksRun;
      if (T.invalidCount() != 0)
        Rep.fail(Tag("no_invalid"),
                 formatString("function %u: %llu out-of-range indices", FI,
                              (unsigned long long)T.invalidCount()));
      if (!Plan.chained())
        continue;

      ++Rep.ChecksRun;
      if (Plan.ChainMult < 2 || Plan.IdBound < Plan.ChainMult)
        Rep.fail(Tag("chain_consts"),
                 formatString("function %u: M=%lld IdBound=%lld", FI,
                              (long long)Plan.ChainMult,
                              (long long)Plan.IdBound));

      uint64_t StoredTotal = 0;
      bool RangeOk = true, ReencodeOk = true;
      T.forEach([&](int64_t Id, uint64_t Count) {
        StoredTotal += Count;
        if (Id < 1 || Id >= Plan.IdBound) {
          RangeOk = false;
          return;
        }
        std::optional<std::vector<PathKey>> Segs = Plan.decodeKPath(Id);
        if (!Segs)
          return; // Poisoned digit: attributed cold, not re-encodable.
        int64_t Acc = 0;
        for (const PathKey &Key : *Segs) {
          std::optional<uint64_t> Num = Plan.pathNumberOf(Key);
          if (!Num) {
            ReencodeOk = false;
            return;
          }
          Acc = Acc * Plan.ChainMult + static_cast<int64_t>(*Num) + 1;
        }
        if (Acc != Id)
          ReencodeOk = false;
      });
      ++Rep.ChecksRun;
      if (!RangeOk)
        Rep.fail(Tag("id_range"),
                 formatString("function %u: stored id outside [1, %lld)", FI,
                              (long long)Plan.IdBound));
      ++Rep.ChecksRun;
      if (!ReencodeOk)
        Rep.fail(Tag("decode_roundtrip"),
                 formatString("function %u: decoded segments did not "
                              "re-encode to their id",
                              FI));

      // Conservation: chained counts never move off the dummy exit
      // edges, so every flush lands in the table or the lost counter --
      // exactly floor(t/K)+1 per completed activation.
      uint64_t Accounted =
          StoredTotal + T.lostCount() + T.coldCheckedCount();
      ++Rep.ChecksRun;
      if (Accounted != Oracle.Expected[FI])
        Rep.fail(Tag("conservation"),
                 formatString("function %u: accounted %llu != expected "
                              "flushes %llu",
                              FI, (unsigned long long)Accounted,
                              (unsigned long long)Oracle.Expected[FI]));
    }

    // Per-routine attribution must tile the same events.
    ProfilerRunData Run = buildEstimatedProfile(M, Clean.EP, IR, RT);
    ++Rep.ChecksRun;
    if (Run.InvalidCounts != 0)
      Rep.fail(Tag("no_invalid"), "estimated profile saw invalid counts");
    uint64_t LostSum = 0, ColdSum = 0, InvSum = 0;
    for (unsigned FI = 0; FI < M.numFunctions(); ++FI) {
      LostSum += Run.FuncLost[FI];
      ColdSum += Run.FuncCold[FI];
      InvSum += Run.FuncInvalid[FI];
    }
    ++Rep.ChecksRun;
    if (LostSum != Run.LostCounts || ColdSum != Run.ColdCounts ||
        InvSum != Run.InvalidCounts)
      Rep.fail(Tag("attribution"),
               "per-function lost/cold/invalid do not sum to the totals");
  }
}

/// The trace backend's whole contract in one battery: recording does
/// not perturb the program (same return value and memory checksum as
/// the clean run), the recording survives a serialize/deserialize
/// round trip field-identically, and decoding it reconstructs counters
/// *bit-identical* to running the instrumented module over the counter
/// runtime -- for an exact plan (pp, which the pp_exact check above
/// ties to the oracle) and for the cold-removing ppp plan (lost, cold,
/// and invalid spill counters included). Two chunk capacities run the
/// same checks: the default (few seals) and a tiny one that forces a
/// seal every few events, stressing the cursor/stitch machinery.
void checkTraceBackend(const Module &M, const CleanProfile &Clean,
                       uint64_t Fuel, InvariantReport &Rep) {
  // Small-but-legal stress capacity: every chunk holds only a few
  // packets past the varint reserve.
  const uint32_t Caps[2] = {trace::DefaultTraceChunkBytes,
                            trace::TraceRecorder::MinTraceChunkBytes * 3};
  trace::TraceRecording Recs[2];
  for (int C = 0; C < 2; ++C) {
    trace::TraceRecorder TR(Caps[C]);
    InterpOptions IO;
    IO.Fuel = Fuel;
    Interpreter I(M, IO);
    I.setTraceRecorder(&TR);
    RunResult Res = I.run();
    ++Rep.ChecksRun;
    if (Res.FuelExhausted) {
      Rep.fail("trace.terminates", "recorded run exhausted fuel");
      return;
    }
    ++Rep.ChecksRun;
    if (Res.ReturnValue != Clean.Res.ReturnValue ||
        Res.MemChecksum != Clean.Res.MemChecksum)
      Rep.fail("trace.semantics",
               formatString("recorded run diverged from clean run "
                            "(chunk cap %u)",
                            Caps[C]));
    Recs[C] = TR.takeRecording();

    std::string Err;
    trace::TraceRecording Back;
    ++Rep.ChecksRun;
    if (!trace::readTraceBinary(trace::writeTraceBinary(Recs[C]), Back,
                                Err))
      Rep.fail("trace.roundtrip", "read failed: " + Err);
    else if (!(Back == Recs[C]))
      Rep.fail("trace.roundtrip", "recording not field-identical");
  }
  ++Rep.ChecksRun;
  if (!(Recs[0].CondEvents == Recs[1].CondEvents &&
        Recs[0].SwitchEvents == Recs[1].SwitchEvents &&
        Recs[0].TotalBytes == Recs[1].TotalBytes))
    Rep.fail("trace.chunking",
             "chunk capacity changed the recorded event stream");

  for (const ProfilerOptions &Opts :
       {ProfilerOptions::pp(), ProfilerOptions::trace()}) {
    InstrumentationResult IR = instrumentModule(M, Clean.EP, Opts);
    ProfileRuntime CounterRT = IR.makeRuntime();
    RunResult Res;
    if (!runCounters(IR, Clean, Fuel * 2, CounterRT, Res,
                     "trace." + Opts.Name, Rep))
      continue;
    CountsMessage Want = countsFromRun(M.Name, IR, CounterRT);
    trace::TraceDecoder Dec(M, IR);
    for (int C = 0; C < 2; ++C) {
      ProfileRuntime DecRT = IR.makeRuntime();
      trace::DecodeStats DS;
      std::string Err;
      ++Rep.ChecksRun;
      if (!Dec.decode(Recs[C], DecRT, DS, Err)) {
        Rep.fail("trace." + Opts.Name + ".decode",
                 formatString("chunk cap %u: %s", Caps[C], Err.c_str()));
        continue;
      }
      ++Rep.ChecksRun;
      if (!(countsFromRun(M.Name, IR, DecRT) == Want))
        Rep.fail("trace." + Opts.Name + ".bit_identical",
                 formatString("chunk cap %u: decoded counters differ "
                              "from the counter backend",
                              Caps[C]));
    }
  }
}

/// The timed-trace battery: cost stamps are a pure annotation. A timed
/// recording must leave semantics untouched, survive the IO round trip
/// field-identically, and decode into counters *bit-identical* to the
/// counter backend (the same oracle checkTraceBackend uses -- the
/// trace and trace+time plans are the same plan). On top of that the
/// attribution side must obey its conservation laws exactly: the
/// replayed total equals the interpreter's own run cost, attributed
/// plus unattributed equals that total, every per-path histogram sums
/// to its path's count, and entry bounds are sane. Same two chunk
/// capacities as the untimed battery, so seals land on stamp points.
void checkTimedTrace(const Module &M, const CleanProfile &Clean, uint64_t Fuel,
                     InvariantReport &Rep) {
  const uint32_t Caps[2] = {trace::DefaultTraceChunkBytes,
                            trace::TraceRecorder::MinTraceChunkBytes * 3};
  trace::TraceRecording Recs[2];
  for (int C = 0; C < 2; ++C) {
    trace::TraceRecorder TR(Caps[C], /*Timestamps=*/true);
    InterpOptions IO;
    IO.Fuel = Fuel;
    Interpreter I(M, IO);
    I.setTraceRecorder(&TR);
    RunResult Res = I.run();
    ++Rep.ChecksRun;
    if (Res.FuelExhausted) {
      Rep.fail("timed.terminates", "timed recorded run exhausted fuel");
      return;
    }
    ++Rep.ChecksRun;
    if (Res.ReturnValue != Clean.Res.ReturnValue ||
        Res.MemChecksum != Clean.Res.MemChecksum)
      Rep.fail("timed.semantics",
               formatString("timed recorded run diverged from clean run "
                            "(chunk cap %u)",
                            Caps[C]));
    Recs[C] = TR.takeRecording();

    std::string Err;
    trace::TraceRecording Back;
    ++Rep.ChecksRun;
    if (!trace::readTraceBinary(trace::writeTraceBinary(Recs[C]), Back,
                                Err))
      Rep.fail("timed.roundtrip", "read failed: " + Err);
    else if (!(Back == Recs[C]))
      Rep.fail("timed.roundtrip", "recording not field-identical");
  }
  ++Rep.ChecksRun;
  if (!(Recs[0].CondEvents == Recs[1].CondEvents &&
        Recs[0].SwitchEvents == Recs[1].SwitchEvents &&
        Recs[0].StampEvents == Recs[1].StampEvents))
    Rep.fail("timed.chunking",
             "chunk capacity changed the timed event stream");

  InstrumentationResult IR =
      instrumentModule(M, Clean.EP, ProfilerOptions::trace());
  ProfileRuntime CounterRT = IR.makeRuntime();
  RunResult Res;
  if (!runCounters(IR, Clean, Fuel * 2, CounterRT, Res, "timed.counter",
                   Rep))
    return;
  CountsMessage Want = countsFromRun(M.Name, IR, CounterRT);

  // Default cost model, matching the recording runs above: the decoder
  // revalidates every stamp against its own replayed cost counter.
  trace::TraceDecoder Dec(M, IR);
  for (int C = 0; C < 2; ++C) {
    ProfileRuntime DecRT = IR.makeRuntime();
    trace::DecodeStats DS;
    trace::PathTimingProfile Timing;
    std::string Err;
    ++Rep.ChecksRun;
    if (!Dec.decode(Recs[C], DecRT, DS, Err, &Timing)) {
      Rep.fail("timed.decode",
               formatString("chunk cap %u: %s", Caps[C], Err.c_str()));
      continue;
    }
    ++Rep.ChecksRun;
    if (!(countsFromRun(M.Name, IR, DecRT) == Want))
      Rep.fail("timed.bit_identical",
               formatString("chunk cap %u: timed decode's counters "
                            "differ from the counter backend",
                            Caps[C]));
    ++Rep.ChecksRun;
    if (Timing.totalCost() != Clean.Res.Cost)
      Rep.fail("timed.total_cost",
               formatString("chunk cap %u: replayed total %llu != clean "
                            "run cost %llu",
                            Caps[C],
                            static_cast<unsigned long long>(
                                Timing.totalCost()),
                            static_cast<unsigned long long>(
                                Clean.Res.Cost)));
    ++Rep.ChecksRun;
    if (Timing.attributedCost() + Timing.unattributedCost() !=
        Timing.totalCost())
      Rep.fail("timed.conservation",
               formatString("chunk cap %u: %llu attributed + %llu "
                            "unattributed != %llu total",
                            Caps[C],
                            static_cast<unsigned long long>(
                                Timing.attributedCost()),
                            static_cast<unsigned long long>(
                                Timing.unattributedCost()),
                            static_cast<unsigned long long>(
                                Timing.totalCost())));
    uint64_t Execs = 0;
    bool HistogramsOk = true, BoundsOk = true;
    for (const auto &KV : Timing.paths()) {
      const trace::PathTimingEntry &E = KV.second;
      uint64_t Sum = 0;
      for (uint64_t B : E.Buckets)
        Sum += B;
      if (Sum != E.Count)
        HistogramsOk = false;
      if (E.MinCost > E.MaxCost || E.MaxCost > E.TotalCost)
        BoundsOk = false;
      Execs += E.Count;
    }
    ++Rep.ChecksRun;
    if (!HistogramsOk)
      Rep.fail("timed.histogram",
               formatString("chunk cap %u: a path's histogram does not "
                            "sum to its count",
                            Caps[C]));
    ++Rep.ChecksRun;
    if (!BoundsOk)
      Rep.fail("timed.entry_bounds",
               formatString("chunk cap %u: a path entry violates "
                            "min <= max <= total",
                            Caps[C]));
    ++Rep.ChecksRun;
    if (Execs != Timing.executions())
      Rep.fail("timed.executions",
               formatString("chunk cap %u: per-path counts sum to %llu "
                            "but %llu executions were recorded",
                            Caps[C],
                            static_cast<unsigned long long>(Execs),
                            static_cast<unsigned long long>(
                                Timing.executions())));
  }
}

/// The adaptive loop's contract (src/adapt): with an adversarially
/// aggressive cadence, a hair-trigger revert threshold, and fast
/// backoff, hot-swapping function versions mid-run preserves semantics
/// exactly (ReturnValue/MemChecksum vs. the clean run), terminates, and
/// leaves the version table resolvable for every function. Two runs per
/// cadence, so versions installed in the first (including main's, which
/// can only swap at a run boundary) execute from entry in the second.
void checkAdaptive(const Module &M, const CleanProfile &Clean, uint64_t Fuel,
                   InvariantReport &Rep) {
  for (uint64_t Cadence : {uint64_t(16), uint64_t(512)}) {
    adapt::AdaptiveOptions AO;
    AO.EpochCalls = Cadence;
    AO.MinPathDelta = 1;
    AO.EvalEpochs = 1;
    AO.RevertThresholdPct = 0.0; // Any cost wobble reverts: both the
                                 // install and the revert path run.
    AO.BackoffIdleEpochs = 2;
    InterpOptions IO;
    IO.Fuel = Fuel * 2;
    std::unique_ptr<adapt::AdaptiveSession> S =
        adapt::AdaptiveSession::create(M, Clean.EP, IO, AO);
    for (int Run = 0; Run < 2; ++Run) {
      RunResult Res = S->run();
      ++Rep.ChecksRun;
      if (Res.FuelExhausted) {
        Rep.fail(formatString("adapt.c%llu.terminates",
                              static_cast<unsigned long long>(Cadence)),
                 formatString("run %d exhausted fuel", Run));
        return;
      }
      ++Rep.ChecksRun;
      if (Res.ReturnValue != Clean.Res.ReturnValue ||
          Res.MemChecksum != Clean.Res.MemChecksum)
        Rep.fail(formatString("adapt.c%llu.semantics",
                              static_cast<unsigned long long>(Cadence)),
                 formatString("run %d diverged from the clean run", Run));
    }

    // Version-table sanity: every function resolvable (deadlock-free by
    // construction -- resolve() decodes on demand), installs consistent
    // with what the controller reports.
    VersionTable &VT = S->interp().versions();
    const adapt::AdaptStats &St = S->controller().stats();
    uint64_t Live = 0, Resolvable = 0;
    for (size_t FI = 0; FI < VT.numFunctions(); ++FI) {
      FuncId F = static_cast<FuncId>(FI);
      if (VT.resolve(F) != nullptr)
        ++Resolvable;
      if (VT.currentVersion(F) > 0)
        ++Live;
    }
    ++Rep.ChecksRun;
    if (Resolvable != VT.numFunctions())
      Rep.fail(formatString("adapt.c%llu.table",
                            static_cast<unsigned long long>(Cadence)),
               "a function failed to resolve after the adaptive runs");
    ++Rep.ChecksRun;
    if (Live + St.VersionsReverted > St.VersionsInstalled)
      Rep.fail(formatString("adapt.c%llu.stats",
                            static_cast<unsigned long long>(Cadence)),
               formatString("live %llu + reverted %llu exceeds installed "
                            "%llu",
                            static_cast<unsigned long long>(Live),
                            static_cast<unsigned long long>(
                                St.VersionsReverted),
                            static_cast<unsigned long long>(
                                St.VersionsInstalled)));
  }
}

} // namespace

InvariantReport ppp::fuzz::checkModuleInvariants(const Module &M,
                                                 uint64_t Fuel) {
  InvariantReport Rep;

  ++Rep.ChecksRun;
  std::string VErr = verifyModule(M);
  if (!VErr.empty()) {
    Rep.fail("verifier", VErr);
    return Rep; // Nothing downstream is meaningful on a broken module.
  }

  InterpOptions IO;
  IO.Fuel = Fuel;
  CleanProfile Clean = profileClean(M, IO);
  ++Rep.ChecksRun;
  if (Clean.Res.FuelExhausted) {
    Rep.fail("terminates", "clean run exhausted fuel");
    return Rep;
  }

  checkRoundTrips(M, Clean, Rep);
  checkDefiniteFlowBound(M, Clean, Rep);

  checkOneProfiler(M, Clean, ProfilerOptions::pp(), Fuel * 2, Rep);
  checkOneProfiler(M, Clean, ProfilerOptions::tpp(), Fuel * 2, Rep);
  checkOneProfiler(M, Clean, ProfilerOptions::ppp(), Fuel * 2, Rep);
  checkKIter(M, Clean, Fuel * 2, Rep);
  checkTraceBackend(M, Clean, Fuel, Rep);
  checkTimedTrace(M, Clean, Fuel, Rep);
  checkAdaptive(M, Clean, Fuel, Rep);
  return Rep;
}
