//===- bench/trace_throughput.cpp - Trace backend speed baseline --------------===//
///
/// Wall-clock throughput of the trace-collection backend, the
/// regression baseline for src/trace: how fast the interpreter runs
/// while appending branch-target packets (vs the clean loop, as a
/// blocked wall-time ratio over the same run), how compact the stream
/// is (bytes per recorded event), and how fast the offline decoder
/// turns packets back into counters as the worker count grows (events
/// decoded per second at PPP_JOBS = 1, 2, 4, and the 2- and 4-job
/// speedups over 1 job). Both comparisons go through bench/Measure.h.
/// Each job count's decode is checked bit-identical against the counter
/// backend before its timing is reported.
///
/// `--json[=PATH]` writes the report to PATH (default BENCH_trace.json)
/// through the obs metrics registry (`trace.` keys, "ppp-metrics-v1"
/// schema) for tools/bench_diff.py --gate trace.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Measure.h"

#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "pathprof/Profilers.h"
#include "trace/TraceDecoder.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

constexpr unsigned Warmup = 2, Reps = 20;
constexpr unsigned JobCounts[3] = {1, 2, 4};

/// Wall-clock columns, in trace.bench.<name>.<key> order.
enum Column {
  CleanMips,
  RecordMips,
  RecordRatio,
  DecodeEpsJ1,
  DecodeEpsJ2,
  DecodeEpsJ4,
  DecodeSpeedupJ2,
  DecodeSpeedupJ4,
  NumColumns
};
constexpr const char *ColumnKeys[NumColumns] = {
    "clean_mips",    "record_mips",   "record_ratio",
    "decode_eps_j1", "decode_eps_j2", "decode_eps_j4",
    "decode_speedup_j2", "decode_speedup_j4"};

struct BenchRow {
  std::string Name;
  Spread Col[NumColumns];
  double BytesPerEvent = 0;
  uint64_t Events = 0; ///< Cond + switch outcomes per run.
  uint64_t Bytes = 0;  ///< Packet bytes per run.
  uint64_t Chunks = 0;
};

/// Decoded counters must match the counter backend bit for bit; the
/// throughput of a wrong decode is not a number worth tracking.
void checkIdentical(const PreparedBenchmark &B,
                    const InstrumentationResult &IR,
                    const ProfileRuntime &Decoded) {
  ProfileRuntime RT = IR.makeRuntime();
  InterpOptions IO;
  IO.Costs = B.Costs;
  Interpreter I(IR.Instrumented, IO);
  I.setProfileRuntime(&RT);
  I.run();
  CountsMessage Want = countsFromRun(B.Name, IR, RT);
  CountsMessage Got = countsFromRun(B.Name, IR, Decoded);
  if (!(Want == Got)) {
    fprintf(stderr,
            "error: %s: decoded profile differs from counter backend\n",
            B.Name.c_str());
    exit(1);
  }
}

BenchRow measureBenchmark(const BenchmarkSpec &Spec) {
  BenchRow Row;
  Row.Name = Spec.Name;
  PreparedBenchmark B = prepare(Spec);
  InterpOptions IO;
  IO.Costs = B.Costs;

  // Record. The recorder is one-shot, so each rep attaches a fresh one;
  // the last rep's recording feeds the decode measurements. Chunks are
  // deliberately small: the suite's traces fit a single default 64 KiB
  // chunk, which would leave decodeTraceParallel nothing to fan out
  // over, and chunk capacity only repartitions the identical byte
  // stream (pinned by tracebackend_test), so recording cost and
  // bytes-per-event are unaffected.
  Interpreter Clean(B.Expanded, IO);
  uint64_t DynInstrs = Clean.run().DynInstrs;
  Interpreter Traced(B.Expanded, IO);
  trace::TraceRecording Rec;
  constexpr size_t BenchChunkBytes = 2048;
  Samples S = measure({[&] { Clean.run(); },
                       [&] {
                         trace::TraceRecorder TR(BenchChunkBytes);
                         Traced.setTraceRecorder(&TR);
                         if (Traced.run().FuelExhausted) {
                           fprintf(stderr, "error: traced %s hung\n",
                                   B.Name.c_str());
                           exit(1);
                         }
                         Rec = TR.takeRecording();
                       }},
                      Warmup, Reps);
  double MInstrs = static_cast<double>(DynInstrs) / 1e6;
  Row.Col[CleanMips] = S.rate(0, MInstrs);
  Row.Col[RecordMips] = S.rate(1, MInstrs);
  Row.Col[RecordRatio] = S.ratio(1);
  Row.Events = Rec.CondEvents + Rec.SwitchEvents;
  Row.Bytes = Rec.TotalBytes;
  Row.Chunks = Rec.Chunks.size();
  Row.BytesPerEvent = Row.Events ? static_cast<double>(Row.Bytes) /
                                       static_cast<double>(Row.Events)
                                 : 0;

  InstrumentationResult IR =
      instrumentModule(B.Expanded, B.EP, ProfilerOptions::trace());
  trace::TraceDecoder Dec(B.Expanded, IR);
  const char *OldJobs = std::getenv("PPP_JOBS");
  std::string Saved = OldJobs ? OldJobs : "";
  std::vector<ProfileRuntime> Decoded(3, IR.makeRuntime());
  std::vector<std::function<void()>> Decodes;
  for (int J = 0; J < 3; ++J)
    Decodes.push_back([&, J] {
      setenv("PPP_JOBS", std::to_string(JobCounts[J]).c_str(), 1);
      Decoded[J] = IR.makeRuntime();
      trace::DecodeStats DS;
      std::string Error;
      if (!decodeTraceParallel(Dec, Rec, Decoded[J], DS, Error)) {
        fprintf(stderr, "error: decode of %s failed: %s\n", B.Name.c_str(),
                Error.c_str());
        exit(1);
      }
    });
  Samples D = measure(Decodes, Warmup, Reps);
  if (OldJobs)
    setenv("PPP_JOBS", Saved.c_str(), 1);
  else
    unsetenv("PPP_JOBS");
  for (int J = 0; J < 3; ++J) {
    checkIdentical(B, IR, Decoded[J]);
    Row.Col[DecodeEpsJ1 + J] = D.rate(J, static_cast<double>(Row.Events));
  }
  Row.Col[DecodeSpeedupJ2] = D.ratio(0, 1);
  Row.Col[DecodeSpeedupJ4] = D.ratio(0, 2);
  return Row;
}

void publishRows(const std::vector<BenchRow> &Rows) {
  obs::gauge("trace.bench.reps").set(Reps);
  std::vector<Spread> Avg[NumColumns];
  for (const BenchRow &R : Rows) {
    std::string K = "trace.bench." + R.Name + ".";
    for (int C = 0; C < NumColumns; ++C) {
      publish(K + ColumnKeys[C], R.Col[C]);
      Avg[C].push_back(R.Col[C]);
    }
    obs::gauge(K + "bytes_per_event").set(R.BytesPerEvent);
    obs::gauge(K + "events").set(static_cast<double>(R.Events));
    obs::gauge(K + "chunks").set(static_cast<double>(R.Chunks));
  }
  for (int C = 0; C < NumColumns; ++C)
    publish(std::string("trace.average.") + ColumnKeys[C], meanOf(Avg[C]));
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_trace.json";
  bool Json = jsonFlag(argc, argv, JsonPath);

  printf("Trace backend throughput (median of %u blocked reps; MIPS = "
         "clean instructions per wall second; decode checked against the "
         "counter backend)\n\n",
         Reps);
  printf("%-10s%11s%10s%8s%9s%12s%12s%12s%8s%8s\n", "bench", "clean-mips",
         "rec-mips", "rec-x", "B/event", "dec-eps-j1", "dec-eps-j2",
         "dec-eps-j4", "j2-x", "j4-x");

  std::vector<BenchRow> Rows;
  // Same representative picks as interp_throughput: branchy INT,
  // call-heavy INT, loopy FP.
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)}) {
    if (Pick >= Suite.size())
      continue;
    BenchRow R = measureBenchmark(Suite[Pick]);
    printf("%-10s%11.2f%10.2f%8.3f%9.3f%12.3g%12.3g%12.3g%8.2f%8.2f\n",
           R.Name.c_str(), R.Col[CleanMips].Median, R.Col[RecordMips].Median,
           R.Col[RecordRatio].Median, R.BytesPerEvent,
           R.Col[DecodeEpsJ1].Median, R.Col[DecodeEpsJ2].Median,
           R.Col[DecodeEpsJ4].Median, R.Col[DecodeSpeedupJ2].Median,
           R.Col[DecodeSpeedupJ4].Median);
    Rows.push_back(std::move(R));
  }
  publishRows(Rows);

  if (Json)
    writeReport(JsonPath, "trace.");
  return 0;
}
