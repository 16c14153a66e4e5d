//===- bench/interp_throughput.cpp - The wall-clock engine bench ----------===//
///
/// Reports raw interpreter throughput (interpreted instructions per
/// wall-clock second) for the execution configurations the evaluation
/// exercises, all on the same prepared program (B.Expanded): a clean
/// run (no observers, no runtime), an edge-observed run (the "free"
/// edge profile), a PPP-instrumented run counting into a
/// ProfileRuntime, a trace-recording run (the trace backend's online
/// half), plus an A/A variant -- the clean run against itself, which
/// bounds the method's own bias. MIPS is clean DynInstrs per wall
/// second for every variant (the same useful work), and each overhead is
/// a blocked wall-time ratio against clean (bench/Measure.h). This is
/// the regression baseline for execution-engine work; unlike every
/// experiment its numbers are wall-clock based and machine-dependent.
///
/// The trace backend's offline half decodes the last recording with
/// decodeTraceParallel at 1, 2 and 4 workers: events decoded per second
/// and the 2- and 4-worker speedups over 1, with packet bytes per event.
/// Every decode is checked bit-identical against the counter backend
/// before its timing is reported; a mismatch exits 1.
///
/// Cold start (interpreter construction plus the first 10k instructions)
/// is measured the same way, lazy vs eager decode as two variants.
///
/// Counter operations put Sec. 3.2's "hashing costs about five times an
/// array counter" on the same clock: nanoseconds per operation of the
/// real PathTable (array, hash, conflict-heavy hash), the hash slot and
/// serve shard-select arithmetic (hardware remainder vs reciprocal), and
/// the trace recorder's cond and switch appends, with the hash/array and
/// trace-cond/array ratios taken per half-round.
///
/// `--reps=N` sets the timed reps per blocked loop (default 40; the
/// trace decode's 20 and the suite preparation's 4 are capped at N): a
/// small N checks the report's shape in seconds, not its numbers.
///
/// `--json[=PATH]` additionally times the full-suite preparation
/// pipeline (prepareUncached() over the suite on parallelJobs()
/// workers), and writes the whole report to PATH (default
/// BENCH_throughput.json): the obs registry's `throughput.` keys in the
/// "ppp-metrics-v1" schema, which tools/bench_diff.py --gate throughput
/// compares.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Measure.h"

#include "interp/Interpreter.h"
#include "interp/PathTable.h"
#include "obs/Obs.h"
#include "pathprof/Profilers.h"
#include "profile/Collectors.h"
#include "serve/ShardHash.h"
#include "support/Rng.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceRecorder.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// 40 blocked reps per variant: with 20, the A/A ratio's median still
/// wandered about +-1.3% between runs on a shared 4-vCPU host; 40 keep
/// it inside +-0.6%. Decoding reaches a stable median in fewer, and the
/// suite preparation (seconds per rep) in fewer still. `--reps=N` sets
/// Reps to N and caps the other two at N (main() sets them once).
constexpr unsigned Warmup = 2;
unsigned Reps = 40, DecodeReps = 20, PrepReps = 4;

/// Recording chunk size. The suite's traces fit a single default 64 KiB
/// chunk, which would leave decodeTraceParallel nothing to fan out
/// over; chunk capacity only repartitions the identical byte stream
/// (pinned by tracebackend_test), so recording cost and bytes per event
/// are unaffected.
constexpr size_t TraceChunkBytes = 2048;
constexpr unsigned DecodeJobs[] = {1, 2, 4};

/// Cold-start latency: interpreter construction plus the first
/// ColdStartInstrs interpreted instructions. Eager decodes the whole
/// module up front; lazy (the default) decodes each function at its
/// first call, so startup only pays for the functions the prefix
/// touches. One rep is ColdStartsPerRep starts.
constexpr uint64_t ColdStartInstrs = 10'000;
constexpr unsigned ColdStartsPerRep = 10;

/// Reported columns: effective MIPS (clean DynInstrs per wall second),
/// wall time over clean, decoded events per second and the decode
/// speedups, and cold-start microseconds per start. The MIPS and ratio
/// columns follow the blocked loop's variant order.
enum Column {
  CleanMips,
  EdgeObsMips,
  PppInstrMips,
  RecordMips,
  EdgeObsRatio,
  PppInstrRatio,
  RecordRatio,
  AaRatio,
  DecodeEpsJ1,
  DecodeEpsJ2,
  DecodeEpsJ4,
  DecodeSpeedupJ2,
  DecodeSpeedupJ4,
  ColdLazyUs,
  ColdEagerUs,
  NumColumns
};
constexpr const char *ColumnKeys[NumColumns] = {
    "clean_mips",        "edge_obs_mips",      "ppp_instr_mips",
    "record_mips",       "edge_obs_ratio",     "ppp_instr_ratio",
    "record_ratio",      "aa_ratio",           "decode_eps_j1",
    "decode_eps_j2",     "decode_eps_j4",      "decode_speedup_j2",
    "decode_speedup_j4", "cold_start_lazy_us", "cold_start_eager_us"};

struct BenchRow {
  std::string Name;
  uint64_t DynInstrs = 0;
  Spread Col[NumColumns];
  uint64_t LazyDecoded = 0, TotalFns = 0; ///< Functions decoded vs present.
  uint64_t Events = 0; ///< Recorded cond + switch outcomes per run.
  uint64_t Chunks = 0;
  double BytesPerEvent = 0;
};

/// Decodes \p Rec at each of DecodeJobs into \p Row's decode columns.
/// The counts must equal the counter backend's bit for bit: the
/// throughput of a wrong decode is not a number worth tracking.
void measureDecode(const PreparedBenchmark &B,
                   const trace::TraceRecording &Rec, BenchRow &Row) {
  InstrumentationResult IR =
      instrumentModule(B.Expanded, B.EP, ProfilerOptions::trace());
  ProfileRuntime CounterRT = IR.makeRuntime();
  Interpreter Counter(IR.Instrumented);
  Counter.setProfileRuntime(&CounterRT);
  Counter.run();
  CountsMessage Want = countsFromRun(B.Name, IR, CounterRT);

  trace::TraceDecoder Dec(B.Expanded, IR);
  std::vector<ProfileRuntime> Decoded(std::size(DecodeJobs),
                                      IR.makeRuntime());
  std::vector<std::function<void()>> Decodes;
  for (size_t J = 0; J < std::size(DecodeJobs); ++J)
    Decodes.push_back([&, J] {
      Decoded[J] = IR.makeRuntime();
      trace::DecodeStats DS;
      std::string Error;
      if (!decodeTraceParallel(Dec, Rec, DecodeJobs[J], Decoded[J], DS,
                               Error)) {
        fprintf(stderr, "error: decode of %s failed: %s\n", B.Name.c_str(),
                Error.c_str());
        exit(1);
      }
    });
  Samples D = measure(Decodes, Warmup, DecodeReps);
  for (size_t J = 0; J < std::size(DecodeJobs); ++J) {
    if (!(countsFromRun(B.Name, IR, Decoded[J]) == Want)) {
      fprintf(stderr,
              "error: %s: decoded profile (%u workers) differs from "
              "counter backend\n",
              B.Name.c_str(), DecodeJobs[J]);
      exit(1);
    }
    Row.Col[DecodeEpsJ1 + J] = D.rate(J, static_cast<double>(Row.Events));
  }
  Row.Col[DecodeSpeedupJ2] = D.ratio(0, 1);
  Row.Col[DecodeSpeedupJ4] = D.ratio(0, 2);
}

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
  // The recorder is one-shot, so each rep attaches a fresh one; the
  // last rep's recording feeds the decode measurements.
  Interpreter Traced(M);
  trace::TraceRecording Rec;

  auto RunClean = [&] { Clean.run(); };
  Samples S = measure({RunClean, [&] { Edge.run(); },
                       [&] {
                         RT.clearCounts();
                         Instr.run();
                       },
                       [&] {
                         trace::TraceRecorder TR(TraceChunkBytes);
                         Traced.setTraceRecorder(&TR);
                         if (Traced.run().FuelExhausted) {
                           fprintf(stderr, "error: traced %s hung\n",
                                   B.Name.c_str());
                           exit(1);
                         }
                         Rec = TR.takeRecording();
                       },
                       RunClean},
                      Warmup, Reps);
  double MInstrs = static_cast<double>(Row.DynInstrs) / 1e6;
  for (int V = 0; V < 4; ++V)
    Row.Col[CleanMips + V] = S.rate(V, MInstrs);
  for (int V = 1; V < 5; ++V)
    Row.Col[EdgeObsRatio + V - 1] = S.ratio(V);
  Row.Events = Rec.CondEvents + Rec.SwitchEvents;
  Row.Chunks = Rec.Chunks.size();
  Row.BytesPerEvent = Row.Events ? static_cast<double>(Rec.TotalBytes) /
                                       static_cast<double>(Row.Events)
                                 : 0;
  measureDecode(B, Rec, Row);

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

/// Operations per timed call of a counter variant. Every variant indexes
/// its inputs from a 1024-entry table drawn before timing, so no
/// operand is a compile-time constant.
constexpr size_t CounterOps = size_t(1) << 18;

/// 1024 draws below \p Bound (0: full 64-bit values), always from the
/// same seed.
std::vector<uint64_t> draws(uint64_t Bound) {
  Rng R(42);
  std::vector<uint64_t> V(1024);
  for (uint64_t &X : V)
    X = Bound ? R.below(Bound) : R.next();
  return V;
}

/// One PathTable variant: CounterOps increments over indices below
/// \p Live (a few hundred live paths fit the hash table; 4000 overflow
/// it into probe chains and lost paths).
std::function<void()> increments(PathTable T, uint64_t Live) {
  return [T = std::move(T), Idx = draws(Live)]() mutable {
    for (size_t K = 0; K < CounterOps; ++K) {
      T.increment(static_cast<int64_t>(Idx[K & 1023]));
      sink(K);
    }
  };
}

/// The serve-side shard selector for \p Shards shards, as a hardware
/// remainder or as the aggregator computes it (Lemire's runtime-divisor
/// fastmod; serve_test pins the two bit-identical). sink() hides the
/// shard count from the compiler, as a runtime configuration value.
template <bool Reciprocal> std::function<void()> shardSelect(uint32_t Shards) {
  return [Shards, Hashes = draws(0)]() mutable {
    sink(Shards);
    serve::ShardSelector Sel(Shards);
    for (size_t K = 0; K < CounterOps; ++K) {
      uint64_t H = Hashes[K & 1023];
      uint32_t S = Reciprocal ? Sel(H) : serve::fold32(H) % Shards;
      sink(S);
    }
  };
}

/// The hash probe's slot math: first slot, step, and one probe advance,
/// as three hardware remainders or as PathTable computes them
/// (fastRemainder's reciprocal multiplies plus a conditional subtract).
template <bool Reciprocal> std::function<void()> slotMath() {
  return [Keys = draws(0)] {
    for (size_t K = 0; K < CounterOps; ++K) {
      uint64_t Key = Keys[K & 1023], H;
      if constexpr (Reciprocal) {
        H = fastRemainder<PathHashSlots>(Key) + 1 +
            fastRemainder<PathHashSlots - 2>(Key);
        if (H >= PathHashSlots)
          H -= PathHashSlots;
      } else {
        H = (Key % PathHashSlots + 1 + Key % (PathHashSlots - 2)) %
            PathHashSlots;
      }
      sink(H);
    }
  };
}

/// The trace backend's hot-path cost per event: a condBit() append per
/// conditional branch, or a switchTarget() varint per switch. A full
/// chunk is discarded by starting a fresh recorder, so memory stays flat.
template <bool Switch> std::function<void()> traceAppends() {
  return [Vals = draws(Switch ? 8 : 2),
          Rec = std::optional<trace::TraceRecorder>(std::in_place)]() mutable {
    for (size_t K = 0; K < CounterOps; ++K) {
      uint64_t V = Vals[K & 1023];
      if constexpr (Switch) {
        if (Rec->needSealBeforeSwitch()) [[unlikely]]
          Rec.emplace();
        Rec->switchTarget(static_cast<uint32_t>(V));
      } else {
        if (Rec->needSealBeforeCond()) [[unlikely]]
          Rec.emplace();
        Rec->condBit(V != 0);
      }
      sink(K);
    }
  };
}

/// Measures the counter operations as one blocked loop, prints them and
/// publishes `throughput.counters.*`.
void measureCounterOps() {
  enum { Array, Hash, TraceCond };
  std::vector<std::pair<const char *, std::function<void()>>> Ops = {
      {"array", increments(PathTable::makeArray(4096), 4096)},
      {"hash", increments(PathTable::makeHash(), 350)},
      {"trace_cond", traceAppends<false>()},
      {"hash_conflict", increments(PathTable::makeHash(), 4000)},
      {"trace_switch", traceAppends<true>()},
      {"slot_modulo", slotMath<false>()},
      {"slot_reciprocal", slotMath<true>()},
      {"shard8_modulo", shardSelect<false>(8)},
      {"shard8_reciprocal", shardSelect<true>(8)},
      {"shard64_modulo", shardSelect<false>(64)},
      {"shard64_reciprocal", shardSelect<true>(64)}};
  std::vector<std::function<void()>> Variants;
  for (auto &Op : Ops)
    Variants.push_back(std::move(Op.second));
  Samples S = measure(Variants, Warmup, Reps);

  printf("\nCounter operations (ns per operation, median of %u blocked reps "
         "of %zu operations)\n\n",
         Reps, CounterOps);
  for (size_t V = 0; V < Ops.size(); ++V) {
    Spread Ns = S.time(V, 1e9 / CounterOps);
    printf("%-20s%8.2f\n", Ops[V].first, Ns.Median);
    publish(std::string("throughput.counters.") + Ops[V].first + "_ns", Ns);
  }
  Spread HashX = S.ratio(Hash, Array), TraceX = S.ratio(TraceCond, Array);
  printf("%-20s%8.2f\n%-20s%8.2f\n", "hash/array", HashX.Median,
         "trace_cond/array", TraceX.Median);
  publish("throughput.counters.hash_array_ratio", HashX);
  publish("throughput.counters.trace_cond_array_ratio", TraceX);
}

/// Measures and reports the suite prepare pipeline (steps 1-4 for every
/// benchmark, prepareUncached() on parallelJobs() workers). The key
/// keeps its historical `cold_sec` name: every rep computes afresh.
void measureSuitePrepare() {
  constexpr unsigned PrepWarmup = 1;
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  auto PrepareSuite = [&] {
    runSuiteParallel(Suite, [](const BenchmarkSpec &Spec) {
      return prepareUncached(Spec).DynInstrs;
    });
  };
  Samples S = measure({PrepareSuite}, PrepWarmup, PrepReps);

  printf("\nSuite preparation (steps 1-4, all %zu benchmarks): %.2fs\n",
         Suite.size(), S.time(0).Median);
  obs::gauge("throughput.suite_prepare.benchmarks").set(Suite.size());
  publish("throughput.suite_prepare.cold_sec", S.time(0));
}

/// Publishes the per-benchmark rows into the obs registry under
/// `throughput.`.
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
    obs::gauge(K + "bytes_per_event").set(R.BytesPerEvent);
    obs::gauge(K + "events").set(static_cast<double>(R.Events));
    obs::gauge(K + "chunks").set(static_cast<double>(R.Chunks));
  }
  for (int C = 0; C < NumColumns; ++C)
    publish(std::string("throughput.average.") + ColumnKeys[C],
            meanOf(Avg[C]));
}

void printRows(const std::vector<BenchRow> &Rows) {
  printf("Interpreter throughput on the prepared module (million clean "
         "instructions per wall second, median of %u blocked reps; "
         "ratios = wall time over clean)\n\n",
         Reps);
  printf("%-10s%10s%10s%10s%10s%9s%9s%9s%9s%12s%11s%11s%10s\n", "bench",
         "clean", "edge-obs", "ppp-instr", "record", "edge-x", "ppp-x",
         "rec-x", "a/a", "dyn-instrs", "cold-lazy", "cold-eager", "decoded");
  for (const BenchRow &R : Rows)
    printf("%-10s%10.2f%10.2f%10.2f%10.2f%9.3f%9.3f%9.3f%9.3f%12llu%11.1f"
           "%11.1f%7llu/%llu\n",
           R.Name.c_str(), R.Col[CleanMips].Median,
           R.Col[EdgeObsMips].Median, R.Col[PppInstrMips].Median,
           R.Col[RecordMips].Median, R.Col[EdgeObsRatio].Median,
           R.Col[PppInstrRatio].Median, R.Col[RecordRatio].Median,
           R.Col[AaRatio].Median, static_cast<unsigned long long>(R.DynInstrs),
           R.Col[ColdLazyUs].Median, R.Col[ColdEagerUs].Median,
           static_cast<unsigned long long>(R.LazyDecoded),
           static_cast<unsigned long long>(R.TotalFns));

  printf("\nTrace decode of the last recording (%zu-byte chunks; events per "
         "second, median of %u blocked reps; checked against the counter "
         "backend)\n\n",
         TraceChunkBytes, DecodeReps);
  printf("%-10s%9s%9s%8s%12s%12s%12s%8s%8s\n", "bench", "events", "B/event",
         "chunks", "dec-eps-j1", "dec-eps-j2", "dec-eps-j4", "j2-x", "j4-x");
  for (const BenchRow &R : Rows)
    printf("%-10s%9llu%9.3f%8llu%12.3g%12.3g%12.3g%8.2f%8.2f\n",
           R.Name.c_str(), static_cast<unsigned long long>(R.Events),
           R.BytesPerEvent, static_cast<unsigned long long>(R.Chunks),
           R.Col[DecodeEpsJ1].Median, R.Col[DecodeEpsJ2].Median,
           R.Col[DecodeEpsJ4].Median, R.Col[DecodeSpeedupJ2].Median,
           R.Col[DecodeSpeedupJ4].Median);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_throughput.json";
  bool Json = jsonFlag(argc, argv, JsonPath, &Reps);
  DecodeReps = std::min(DecodeReps, Reps);
  PrepReps = std::min(PrepReps, Reps);

  std::vector<BenchRow> Rows;
  // Three representative recipes: branchy INT, call-heavy INT, loopy FP.
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)})
    if (Pick < Suite.size())
      Rows.push_back(measureBenchmark(Suite[Pick]));
  printRows(Rows);
  publishRows(Rows);
  measureCounterOps();

  if (Json) {
    measureSuitePrepare();
    writeReport(JsonPath, "throughput.");
  }
  return 0;
}
