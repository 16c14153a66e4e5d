//===- tests/obs_test.cpp - Telemetry layer tests -----------------------------===//
///
/// Pins the observability substrate (DESIGN.md §7): the metrics
/// registry's concurrent correctness and snapshot determinism, the
/// run-report JSON (parse-back through obs/Json.h), the Chrome trace
/// recorder, and -- most importantly -- the fastpath guard: enabling
/// interpreter telemetry must be observationally invisible (identical
/// RunResults and path tables), because the experiment binaries'
/// byte-identity contract depends on it.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interpreter.h"
#include "interp/PathTable.h"
#include "obs/Json.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "pathprof/Profilers.h"
#include "workload/Suite.h"

#include "gtest/gtest.h"

#include <clocale>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

std::string tempFile(const char *Tag) {
  std::error_code Ec;
  return (std::filesystem::temp_directory_path(Ec) /
          ("ppp-obs-test-" + std::to_string(::getpid()) + "-" + Tag +
           ".json"))
      .string();
}

std::string slurp(const std::string &Path) {
  FILE *F = fopen(Path.c_str(), "rb");
  if (!F)
    return "";
  std::string Out;
  char Buf[4096];
  for (size_t N; (N = fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Out.append(Buf, N);
  fclose(F);
  return Out;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, CounterConcurrentSum) {
  obs::Registry::instance().resetForTesting();
  obs::Counter &C = obs::counter("test.counter.concurrent");
  constexpr unsigned Threads = 8, PerThread = 100000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&C] {
      for (unsigned I = 0; I < PerThread; ++I)
        C.inc();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);

  // Handles are stable: re-lookup returns the same counter.
  EXPECT_EQ(&obs::counter("test.counter.concurrent"), &C);
}

TEST(ObsRegistry, HistogramConcurrentAndBuckets) {
  obs::Registry::instance().resetForTesting();
  obs::Histogram &H = obs::histogram("test.histo.concurrent");
  constexpr unsigned Threads = 4, PerThread = 50000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&H, T] {
      for (unsigned I = 0; I < PerThread; ++I)
        H.record(T + 1); // Values 1..4.
    });
  for (std::thread &T : Pool)
    T.join();
  obs::Histogram::Data D = H.data();
  EXPECT_EQ(D.Count, uint64_t(Threads) * PerThread);
  EXPECT_EQ(D.Sum, uint64_t(PerThread) * (1 + 2 + 3 + 4));
  EXPECT_EQ(D.Min, 1u);
  EXPECT_EQ(D.Max, 4u);

  // Log2 bucket semantics: bucket B holds values with bit_width == B.
  obs::Histogram &B = obs::histogram("test.histo.buckets");
  B.record(0);    // bucket 0
  B.record(1);    // bucket 1
  B.record(2);    // bucket 2
  B.record(3);    // bucket 2
  B.record(1024); // bucket 11
  obs::Histogram::Data BD = B.data();
  ASSERT_GE(BD.Buckets.size(), 12u);
  EXPECT_EQ(BD.Buckets[0], 1u);
  EXPECT_EQ(BD.Buckets[1], 1u);
  EXPECT_EQ(BD.Buckets[2], 2u);
  EXPECT_EQ(BD.Buckets[11], 1u);
  EXPECT_EQ(BD.Min, 0u);
  EXPECT_EQ(BD.Max, 1024u);
}

TEST(ObsRegistry, GaugeLastValueWins) {
  obs::Registry::instance().resetForTesting();
  obs::Gauge &G = obs::gauge("test.gauge");
  G.set(1.5);
  G.set(2.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
  EXPECT_DOUBLE_EQ(obs::snapshot().gauge("test.gauge"), 2.5);
}

TEST(ObsRegistry, SnapshotDeterministicAndSorted) {
  obs::Registry::instance().resetForTesting();
  obs::counter("test.z.last").inc(3);
  obs::counter("test.a.first").inc(1);
  obs::gauge("test.m.middle").set(7);

  obs::MetricsSnapshot S1 = obs::snapshot();
  obs::MetricsSnapshot S2 = obs::snapshot();
  ASSERT_EQ(S1.Entries.size(), S2.Entries.size());
  for (size_t I = 0; I < S1.Entries.size(); ++I) {
    EXPECT_EQ(S1.Entries[I].Name, S2.Entries[I].Name);
    EXPECT_EQ(S1.Entries[I].Count, S2.Entries[I].Count);
    EXPECT_EQ(S1.Entries[I].Value, S2.Entries[I].Value);
    if (I) {
      EXPECT_LT(S1.Entries[I - 1].Name, S1.Entries[I].Name);
    }
  }
  EXPECT_EQ(S1.counter("test.a.first"), 1u);
  EXPECT_EQ(S1.counter("test.z.last"), 3u);

  // RegOrder records first-registration order even though entries are
  // name-sorted (the PPP_PASS_STATS view depends on this).
  const obs::SnapshotEntry *Z = S1.find("test.z.last");
  const obs::SnapshotEntry *A = S1.find("test.a.first");
  ASSERT_TRUE(Z && A);
  EXPECT_LT(Z->RegOrder, A->RegOrder);
}

//===----------------------------------------------------------------------===//
// Run report (PPP_METRICS)
//===----------------------------------------------------------------------===//

TEST(ObsMetricsJson, FormatParsesBackAndFilters) {
  obs::Registry::instance().resetForTesting();
  obs::counter("test.json.counter").inc(42);
  obs::gauge("test.json.gauge").set(1.25);
  obs::histogram("test.json.histo").record(100);
  obs::counter("other.counter").inc(7);

  obs::json::Value V;
  std::string Error;
  ASSERT_TRUE(obs::json::parse(obs::formatMetricsJson(obs::snapshot()), V,
                               Error))
      << Error;
  ASSERT_TRUE(V.isObject());
  const obs::json::Value *Schema = V.get("schema");
  ASSERT_TRUE(Schema && Schema->isString());
  EXPECT_EQ(Schema->Str, "ppp-metrics-v1");

  const obs::json::Value *Counters = V.get("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  const obs::json::Value *C = Counters->get("test.json.counter");
  ASSERT_TRUE(C && C->isNumber());
  EXPECT_EQ(C->Num, 42);
  EXPECT_TRUE(Counters->get("other.counter"));

  const obs::json::Value *Gauges = V.get("gauges");
  ASSERT_TRUE(Gauges && Gauges->isObject());
  const obs::json::Value *G = Gauges->get("test.json.gauge");
  ASSERT_TRUE(G && G->isNumber());
  EXPECT_DOUBLE_EQ(G->Num, 1.25);

  const obs::json::Value *Histos = V.get("histograms");
  ASSERT_TRUE(Histos && Histos->isObject());
  const obs::json::Value *H = Histos->get("test.json.histo");
  ASSERT_TRUE(H && H->isObject());
  EXPECT_EQ(H->get("count")->Num, 1);
  EXPECT_EQ(H->get("sum")->Num, 100);

  // Prefix filtering keeps only matching keys (the throughput
  // trajectory file relies on this).
  obs::json::Value F;
  ASSERT_TRUE(obs::json::parse(
      obs::formatMetricsJson(obs::snapshot(), "test.json."), F, Error))
      << Error;
  EXPECT_TRUE(F.get("counters")->get("test.json.counter"));
  EXPECT_FALSE(F.get("counters")->get("other.counter"));
}

TEST(ObsMetricsJson, WriteToFileRoundTrip) {
  obs::Registry::instance().resetForTesting();
  obs::counter("test.file.counter").inc(9);
  std::string Path = tempFile("metrics");
  std::string Error;
  ASSERT_TRUE(obs::writeMetricsJson(Path, "", &Error)) << Error;

  obs::json::Value V;
  ASSERT_TRUE(obs::json::parse(slurp(Path), V, Error)) << Error;
  EXPECT_EQ(V.get("counters")->get("test.file.counter")->Num, 9);
  std::error_code Ec;
  std::filesystem::remove(Path, Ec);

  // Unwritable destination reports failure instead of dying.
  EXPECT_FALSE(
      obs::writeMetricsJson("/nonexistent-dir/metrics.json", "", &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Trace recorder (PPP_TRACE)
//===----------------------------------------------------------------------===//

TEST(ObsTrace, SpansRoundTripThroughJson) {
  std::string Path = tempFile("trace");
  obs::traceConfigure(Path);
  ASSERT_TRUE(obs::traceEnabled());

  {
    obs::ScopedSpan Outer(std::string("outer"), "test");
    obs::ScopedSpan Inner("inner:", std::string("suffix"), "test");
  }
  std::thread Worker([] {
    obs::traceThreadName("ppp-test-worker");
    obs::ScopedSpan Span(std::string("worker-span"), "test");
  });
  Worker.join();

  std::string Error;
  ASSERT_TRUE(obs::traceFlush(&Error)) << Error;
  obs::traceConfigure("");
  EXPECT_FALSE(obs::traceEnabled());

  obs::json::Value V;
  ASSERT_TRUE(obs::json::parse(slurp(Path), V, Error)) << Error;
  const obs::json::Value *Events = V.get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  bool SawOuter = false, SawInner = false, SawWorkerSpan = false,
       SawThreadName = false;
  for (const obs::json::Value &E : Events->Arr) {
    const obs::json::Value *Ph = E.get("ph");
    const obs::json::Value *Name = E.get("name");
    ASSERT_TRUE(Ph && Name);
    if (Ph->Str == "X") {
      ASSERT_TRUE(E.get("ts") && E.get("dur"));
      EXPECT_GE(E.get("dur")->Num, 0);
      if (Name->Str == "outer")
        SawOuter = true;
      if (Name->Str == "inner:suffix")
        SawInner = true;
      if (Name->Str == "worker-span")
        SawWorkerSpan = true;
    } else if (Ph->Str == "M" && Name->Str == "thread_name") {
      const obs::json::Value *NameArg =
          E.get("args") ? E.get("args")->get("name") : nullptr;
      if (NameArg && NameArg->Str == "ppp-test-worker")
        SawThreadName = true;
    }
  }
  EXPECT_TRUE(SawOuter);
  EXPECT_TRUE(SawInner);
  EXPECT_TRUE(SawWorkerSpan);
  EXPECT_TRUE(SawThreadName);
  std::error_code Ec;
  std::filesystem::remove(Path, Ec);
}

TEST(ObsTrace, DisabledRecorderIsInert) {
  obs::traceConfigure("");
  EXPECT_FALSE(obs::traceEnabled());
  { obs::ScopedSpan Span(std::string("ignored"), "test"); }
  std::string Error;
  EXPECT_FALSE(obs::traceFlush(&Error)); // Nothing to flush to.
}

//===----------------------------------------------------------------------===//
// Interpreter telemetry: the fastpath guard
//===----------------------------------------------------------------------===//

void expectSameResult(const RunResult &A, const RunResult &B,
                      const std::string &Bench) {
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Bench;
  EXPECT_EQ(A.DynInstrs, B.DynInstrs) << Bench;
  EXPECT_EQ(A.Cost, B.Cost) << Bench;
  EXPECT_EQ(A.MemChecksum, B.MemChecksum) << Bench;
  EXPECT_EQ(A.FuelExhausted, B.FuelExhausted) << Bench;
}

std::vector<std::pair<int64_t, uint64_t>>
snapshotCounts(const ProfileRuntime &RT) {
  std::vector<std::pair<int64_t, uint64_t>> Out;
  for (unsigned F = 0; F < RT.numFunctions(); ++F) {
    const PathTable &T = RT.table(static_cast<FuncId>(F));
    T.forEach([&](int64_t Idx, uint64_t C) { Out.emplace_back(Idx, C); });
    Out.emplace_back(-1000 - F, T.lostCount());
    Out.emplace_back(-2000 - F, T.invalidCount());
    Out.emplace_back(-3000 - F, T.coldCheckedCount());
  }
  return Out;
}

/// Restores environment-driven telemetry gating on scope exit, so a
/// failing assertion cannot leak a forced mode into other tests.
struct InterpStatsGuard {
  ~InterpStatsGuard() { obs::setInterpStatsForTesting(-1); }
};

TEST(ObsInterpStats, TelemetryRunIsObservationallyIdentical) {
  InterpStatsGuard Guard;
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  // Same three recipes as fastpath_test: branchy INT, call-heavy INT,
  // loopy FP -- covering the array, hash, and checked-counting paths.
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)}) {
    ASSERT_LT(Pick, Suite.size());
    const BenchmarkSpec &Spec = Suite[Pick];
    Module M = buildCalibrated(Spec);

    obs::setInterpStatsForTesting(0);
    RunResult ROff = Interpreter(M).run();
    obs::setInterpStatsForTesting(1);
    RunResult ROn = Interpreter(M).run();
    expectSameResult(ROff, ROn, Spec.Name);

    // Instrumented runs: path tables must also be identical.
    PreparedBenchmark B = prepare(Spec);
    InstrumentationResult IR =
        instrumentModule(B.Expanded, B.EP, ProfilerOptions::ppp());

    obs::setInterpStatsForTesting(0);
    ProfileRuntime RTOff = IR.makeRuntime();
    Interpreter IOff(IR.Instrumented);
    IOff.setProfileRuntime(&RTOff);
    RunResult RIOff = IOff.run();

    obs::setInterpStatsForTesting(1);
    ProfileRuntime RTOn = IR.makeRuntime();
    Interpreter IOn(IR.Instrumented);
    IOn.setProfileRuntime(&RTOn);
    RunResult RIOn = IOn.run();

    expectSameResult(RIOff, RIOn, Spec.Name);
    EXPECT_EQ(snapshotCounts(RTOff), snapshotCounts(RTOn)) << Spec.Name;
  }
}

TEST(ObsInterpStats, MetricsFlowIntoRegistry) {
  InterpStatsGuard Guard;
  Module M = buildCalibrated(spec2000Suite()[0]);

  obs::setInterpStatsForTesting(1);
  uint64_t Runs0 = obs::counter("interp.runs").value();
  uint64_t Instrs0 = obs::counter("interp.instrs").value();
  RunResult R = Interpreter(M).run();
  EXPECT_EQ(obs::counter("interp.runs").value(), Runs0 + 1);
  EXPECT_EQ(obs::counter("interp.instrs").value(), Instrs0 + R.DynInstrs);

  // Disabled runs record nothing.
  obs::setInterpStatsForTesting(0);
  uint64_t Runs1 = obs::counter("interp.runs").value();
  Interpreter(M).run();
  EXPECT_EQ(obs::counter("interp.runs").value(), Runs1);
}

TEST(ObsInterpStats, TableIncrementsRecorded) {
  InterpStatsGuard Guard;
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  PreparedBenchmark B = prepare(Suite[0]);
  InstrumentationResult IR =
      instrumentModule(B.Expanded, B.EP, ProfilerOptions::ppp());

  obs::setInterpStatsForTesting(1);
  uint64_t Incs0 = obs::counter("interp.table.increments").value();
  ProfileRuntime RT = IR.makeRuntime();
  Interpreter I(IR.Instrumented);
  I.setProfileRuntime(&RT);
  I.run();

  // Every count the tables hold was recorded, plus lost/cold updates.
  uint64_t TableTotal = 0;
  for (unsigned F = 0; F < RT.numFunctions(); ++F) {
    const PathTable &T = RT.table(static_cast<FuncId>(F));
    T.forEach([&](int64_t, uint64_t C) { TableTotal += C; });
    TableTotal += T.lostCount() + T.invalidCount() + T.coldCheckedCount();
  }
  EXPECT_EQ(obs::counter("interp.table.increments").value() - Incs0,
            TableTotal);
}

//===----------------------------------------------------------------------===//
// PathTable::addTraffic()
//===----------------------------------------------------------------------===//

/// The probe accounting addTraffic() derives from stored counts equals
/// what per-increment counting recorded for the same sequences (the
/// expected numbers were measured with the per-increment counters the
/// derivation replaced).
TEST(ObsPathTable, TrafficMatchesPerIncrementCounts) {
  auto Expect = [](const PathTable &Table, uint64_t Increments,
                   uint64_t Probes, uint64_t Collisions, uint64_t Lost,
                   uint64_t Invalid, uint64_t Cold) {
    PathTable::Traffic T;
    Table.addTraffic(T);
    EXPECT_EQ(T.Increments, Increments);
    EXPECT_EQ(T.Probes, Probes);
    EXPECT_EQ(T.Collisions, Collisions);
    EXPECT_EQ(T.Lost, Lost);
    EXPECT_EQ(T.Invalid, Invalid);
    EXPECT_EQ(T.Cold, Cold);
  };

  // Array variant: in-range, out-of-range, repeated.
  PathTable A = PathTable::makeArray(10);
  for (int64_t Idx : {0, 5, 9, 5, 12, -1, 0})
    A.increment(Idx);
  Expect(A, 7, 5, 0, 0, 2, 0);

  // Hash variant: 5000 distinct keys into 701 slots.
  PathTable H = PathTable::makeHash();
  for (int64_t Idx = 0; Idx < 5000; ++Idx)
    H.increment(Idx);
  Expect(H, 5000, 13598, 12897, 4299, 0, 0);

  // Hand count: 701 and 1402 share key 0's home slot. 701 (step 3)
  // lands behind keys 0 and 3 at position 2, twice: 3 probes and 2
  // collisions each. 1402 (step 5) finds 0, 5 and 10 taken: lost after
  // 3 probes and 3 collisions.
  PathTable P = PathTable::makeHash();
  for (int64_t Idx : {0, 3, 5, 10, 701, 701, 1402})
    P.increment(Idx);
  EXPECT_EQ(P.countFor(701), 2u);
  Expect(P, 7, 13, 7, 1, 0, 0);
  P.increment(701);
  Expect(P, 8, 16, 9, 1, 0, 0);
  P.reset();
  Expect(P, 0, 0, 0, 0, 0, 0);

  // Checked counting: poison indices count as cold, not as probes.
  PathTable C = PathTable::makeArray(4);
  C.incrementChecked(-7);
  C.incrementChecked(2);
  Expect(C, 2, 1, 0, 0, 0, 1);

  // Traffic accumulates across tables.
  PathTable::Traffic Sum;
  A.addTraffic(Sum);
  C.addTraffic(Sum);
  EXPECT_EQ(Sum.Increments, 9u);
  EXPECT_EQ(Sum.Probes, 6u);
}

//===----------------------------------------------------------------------===//
// JSON parser hardening (fuzz-driven fixes)
//===----------------------------------------------------------------------===//

/// parse() into V, returning success. Failures must carry a message.
bool parseJson(const std::string &Text, obs::json::Value &V) {
  std::string Error;
  bool Ok = obs::json::parse(Text, V, Error);
  if (!Ok) {
    EXPECT_FALSE(Error.empty()) << "rejection without a message: " << Text;
  }
  return Ok;
}

TEST(ObsJsonNumbers, LocaleIndependentParsing) {
  // strtod honors LC_NUMERIC, so under a decimal-comma locale "1.5"
  // used to parse as 1.0 with trailing-garbage ".5" (and the parser
  // then failed the whole document). from_chars never consults the
  // locale; force a comma locale (when the image has one) to pin it.
  const char *Prev = std::setlocale(LC_NUMERIC, nullptr);
  std::string Saved = Prev ? Prev : "C";
  bool HaveComma = std::setlocale(LC_NUMERIC, "de_DE.UTF-8") != nullptr ||
                   std::setlocale(LC_NUMERIC, "fr_FR.UTF-8") != nullptr;
  obs::json::Value V;
  bool Ok = parseJson("[1.5, -2.25e2, 0.125]", V);
  std::setlocale(LC_NUMERIC, Saved.c_str());
  ASSERT_TRUE(Ok) << (HaveComma ? "comma locale" : "C locale");
  ASSERT_EQ(V.Arr.size(), 3u);
  EXPECT_DOUBLE_EQ(V.Arr[0].Num, 1.5);
  EXPECT_DOUBLE_EQ(V.Arr[1].Num, -225.0);
  EXPECT_DOUBLE_EQ(V.Arr[2].Num, 0.125);
}

TEST(ObsJsonNumbers, OverflowSaturatesAndMalformedFails) {
  obs::json::Value V;
  ASSERT_TRUE(parseJson("[1e400, -1e400, 1e-400]", V));
  EXPECT_TRUE(std::isinf(V.Arr[0].Num) && V.Arr[0].Num > 0);
  EXPECT_TRUE(std::isinf(V.Arr[1].Num) && V.Arr[1].Num < 0);
  EXPECT_DOUBLE_EQ(V.Arr[2].Num, 0.0);
  for (const char *Bad : {"1.2.3", "1e", "1e+", "-", "+1", ".5", "1.5e1.5"})
    EXPECT_FALSE(parseJson(Bad, V)) << Bad;
}

TEST(ObsJsonStrings, SurrogatePairsDecodeLoneOnesFail) {
  obs::json::Value V;
  // Valid pair: U+1F600 as 4-byte UTF-8.
  ASSERT_TRUE(parseJson("\"\\uD83D\\uDE00\"", V));
  EXPECT_EQ(V.Str, "\xF0\x9F\x98\x80");
  // BMP escapes keep working.
  ASSERT_TRUE(parseJson("\"\\u00e9\\u4e2d\"", V));
  EXPECT_EQ(V.Str, "\xC3\xA9\xE4\xB8\xAD");
  // Lone high, lone low, high+non-surrogate, high+literal, truncated
  // pair: all rejected instead of silently degrading to '?'.
  for (const char *Bad :
       {"\"\\uD800\"", "\"\\uDC00\"", "\"\\uD800\\u0041\"", "\"\\uD800x\"",
        "\"\\uD800\\u\"", "\"\\uD83D\\uD83D\""})
    EXPECT_FALSE(parseJson(Bad, V)) << Bad;
}

TEST(ObsJsonRobustness, TruncatedDocumentsFailWithoutThrowing) {
  // Every prefix of a document exercising all syntax forms must return
  // an error (or parse, for the rare prefix that is itself valid) --
  // never throw or crash. This is the satellite regression for the
  // end-of-input guards in literal()/parseValue().
  const std::string Doc =
      "{\"a\": [1, -2.5e-3, true, false, null], \"b\": {\"c\": \"x\\u0041\"},"
      " \"d\": \"\\uD83D\\uDE00\"}";
  obs::json::Value V;
  ASSERT_TRUE(parseJson(Doc, V));
  for (size_t Len = 0; Len < Doc.size(); ++Len) {
    std::string Error;
    EXPECT_FALSE(obs::json::parse(Doc.substr(0, Len), V, Error))
        << "prefix " << Len << " accepted";
    EXPECT_FALSE(Error.empty()) << "prefix " << Len;
  }
  // Truncated literals specifically (the literal() guard).
  for (const char *Bad : {"t", "tru", "f", "fals", "n", "nul", "[t", "[true,"})
    EXPECT_FALSE(parseJson(Bad, V)) << Bad;
}

} // namespace
