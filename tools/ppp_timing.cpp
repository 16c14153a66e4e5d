//===- tools/ppp_timing.cpp - Trace backend and timing attribution CLI --------===//
///
/// \file
/// File-level driver for the trace backend, the vehicle for
/// tools/trace_smoke.sh's byte-identity checks and for eyeballing where
/// a workload's cycles actually go:
///
///   ppp_timing record  --bench=NAME --out=trace.bin [--chunk=N]
///   ppp_timing decode  --bench=NAME --trace=trace.bin --out=counts.bin
///                      [--report] [--paths=N] [--window=N] [--topk=K]
///                      [--threshold=F]
///   ppp_timing counter --bench=NAME --out=counts.bin
///
/// `record` runs the named suite benchmark's *clean* expanded module
/// with packet recording and writes the framed recording, stamped with
/// this build's PrepPipelineVersion. The recording is timed (cost
/// stamps at every due Ret) exactly when `--spec` parses with
/// TraceTimestamps, the rule the experiment harness uses. `decode`
/// replays it by parallel chunk decode (PPP_JOBS workers) and writes
/// the canonical 'bPSC' counts frame (profile/Merge.h). For a timed
/// recording it also *verifies the conservation law itself* --
/// attributed + unattributed must equal the replayed total cost
/// exactly, or the tool exits nonzero -- and `--report` prints the
/// per-path latency table (top N by total exclusive cost) and the
/// phase-detection windows with their boundaries. `counter` runs the
/// instrumented module over the counter runtime -- the online
/// baseline. Both count paths write the same frame, so two equal
/// profiles are equal *files*: `cmp` is the oracle, at any job count.
///
/// Every subcommand instruments with the `trace+time` profiler spec's
/// plan; `--spec` substitutes another (`trace` records untimed).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interpreter.h"
#include "pass/Pipeline.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceIO.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: ppp_timing record  --bench=NAME --out=FILE [--chunk=N]\n"
      "       ppp_timing decode  --bench=NAME --trace=FILE --out=FILE\n"
      "                          [--report] [--paths=N] [--window=N]\n"
      "                          [--topk=K] [--threshold=F]\n"
      "       ppp_timing counter --bench=NAME --out=FILE\n"
      "       (common: [--spec=PROFILER], decode honors PPP_JOBS)\n");
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return Out.good();
}

bool readFile(const std::string &Path, std::string &Data) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Data = SS.str();
  return In.good() || In.eof();
}

BenchmarkSpec findBench(const std::string &Name) {
  if (std::optional<BenchmarkSpec> Spec = findBenchmark(Name))
    return *Spec;
  std::fprintf(stderr, "error: unknown benchmark '%s'; pick one of:",
               Name.c_str());
  for (const BenchmarkSpec &Spec : spec2000Suite())
    std::fprintf(stderr, " %s", Spec.Name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(1);
}

void printReport(const Module &M, const trace::PathTimingProfile &Timing,
                 size_t MaxPaths) {
  // Per-path latency table, hottest (by total exclusive cost) first;
  // ties broken by key so the report is deterministic.
  std::vector<std::pair<trace::PathKey, const trace::PathTimingEntry *>>
      Rows;
  Rows.reserve(Timing.paths().size());
  for (const auto &KV : Timing.paths())
    Rows.push_back({KV.first, &KV.second});
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.second->TotalCost != B.second->TotalCost)
      return A.second->TotalCost > B.second->TotalCost;
    return A.first < B.first;
  });
  if (Rows.size() > MaxPaths)
    Rows.resize(MaxPaths);

  std::printf("%-14s %10s %12s %14s %10s %8s %10s\n", "function", "path",
              "count", "total", "mean", "min", "max");
  for (const auto &Row : Rows) {
    const trace::PathTimingEntry &E = *Row.second;
    std::printf("%-14s %10lld %12llu %14llu %10.1f %8llu %10llu\n",
                M.function(Row.first.F).Name.c_str(),
                (long long)Row.first.Index, (unsigned long long)E.Count,
                (unsigned long long)E.TotalCost,
                static_cast<double>(E.TotalCost) /
                    static_cast<double>(E.Count),
                (unsigned long long)E.MinCost,
                (unsigned long long)E.MaxCost);
  }

  std::vector<uint32_t> Bounds = Timing.phaseBoundaries();
  std::printf("phases: %zu windows, %zu boundaries\n",
              Timing.windows().size(), Bounds.size());
  for (size_t W = 0; W < Timing.windows().size(); ++W) {
    const trace::PhaseWindow &Win = Timing.windows()[W];
    bool Boundary =
        std::find(Bounds.begin(), Bounds.end(), static_cast<uint32_t>(W)) !=
        Bounds.end();
    std::printf("  window %3zu: execs=%llu cost=%llu similarity=%.3f "
                "hot={",
                W, (unsigned long long)Win.Execs,
                (unsigned long long)Win.Cost, Win.Similarity);
    for (size_t I = 0; I < Win.HotSet.size(); ++I)
      std::printf("%s%s:%lld", I ? "," : "",
                  M.function(Win.HotSet[I].F).Name.c_str(),
                  (long long)Win.HotSet[I].Index);
    std::printf("}%s\n", Boundary ? "  <-- phase boundary" : "");
  }
}

/// `decode`: replays the recording at \p TracePath into \p RT. Timed
/// recordings also get the conservation check and the optional report.
/// Returns a process exit code.
int decode(const PreparedBenchmark &B, const InstrumentationResult &IR,
           ProfileRuntime &RT, const std::string &TracePath, bool Report,
           size_t MaxPaths, const trace::PathTimingOptions &TOpts) {
  std::string Blob, Err;
  trace::TraceRecording Rec;
  if (!readFile(TracePath, Blob)) {
    std::fprintf(stderr, "error: cannot read %s\n", TracePath.c_str());
    return 1;
  }
  if (!trace::readTraceBinary(Blob, Rec, Err)) {
    std::fprintf(stderr, "error: %s: %s\n", TracePath.c_str(), Err.c_str());
    return 1;
  }
  if (Report && !Rec.Timed) {
    std::fprintf(stderr, "error: --report needs a timed recording; %s "
                         "is untimed (record it with --spec=trace+time)\n",
                 TracePath.c_str());
    return 1;
  }
  if (Rec.PipelineVersion != 0 && Rec.PipelineVersion != PrepPipelineVersion) {
    std::fprintf(stderr,
                 "error: %s was recorded by prep pipeline %u, this build "
                 "is %u\n",
                 TracePath.c_str(), Rec.PipelineVersion, PrepPipelineVersion);
    return 1;
  }

  trace::TraceDecoder Dec(B.Expanded, IR, B.Costs);
  trace::DecodeStats DS;
  trace::PathTimingProfile Timing(TOpts);
  unsigned Jobs = parallelJobs(Rec.Chunks.size());
  if (!decodeTraceParallel(Dec, Rec, Jobs, RT, DS, Err,
                           Rec.Timed ? &Timing : nullptr)) {
    std::fprintf(stderr, "error: decode failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("decoded %s: %llu chunks, %llu events, %llu increments "
              "(%u jobs)\n",
              B.Name.c_str(), (unsigned long long)DS.Chunks,
              (unsigned long long)(DS.CondEvents + DS.SwitchEvents),
              (unsigned long long)DS.Increments, Jobs);
  if (!Rec.Timed)
    return 0;

  Timing.finishPhases();
  Timing.flushMetrics();
  // The conservation law is this tool's own exit-code contract: every
  // replayed cost unit is attributed exactly once.
  if (Timing.attributedCost() + Timing.unattributedCost() !=
      Timing.totalCost()) {
    std::fprintf(stderr,
                 "error: conservation violated: %llu attributed + %llu "
                 "unattributed != %llu total\n",
                 (unsigned long long)Timing.attributedCost(),
                 (unsigned long long)Timing.unattributedCost(),
                 (unsigned long long)Timing.totalCost());
    return 1;
  }
  std::printf("timed %s: total=%llu attributed=%llu unattributed=%llu "
              "paths=%zu stamps=%llu\n",
              B.Name.c_str(), (unsigned long long)Timing.totalCost(),
              (unsigned long long)Timing.attributedCost(),
              (unsigned long long)Timing.unattributedCost(),
              Timing.paths().size(), (unsigned long long)DS.StampEvents);
  if (Report)
    printReport(B.Expanded, Timing, MaxPaths);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 2;
  }
  std::string Cmd = Argv[1];
  std::string Bench, Out, TracePath, Spec = "trace+time";
  uint32_t ChunkBytes = trace::DefaultTraceChunkBytes;
  bool Report = false;
  size_t MaxPaths = 20;
  trace::PathTimingOptions TOpts;
  for (int I = 2; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--bench=", 8) == 0)
      Bench = A + 8;
    else if (std::strncmp(A, "--out=", 6) == 0)
      Out = A + 6;
    else if (std::strncmp(A, "--trace=", 8) == 0)
      TracePath = A + 8;
    else if (std::strncmp(A, "--spec=", 7) == 0)
      Spec = A + 7;
    else if (std::strncmp(A, "--chunk=", 8) == 0)
      ChunkBytes = static_cast<uint32_t>(std::strtoul(A + 8, nullptr, 10));
    else if (std::strcmp(A, "--report") == 0)
      Report = true;
    else if (std::strncmp(A, "--paths=", 8) == 0)
      MaxPaths = std::strtoul(A + 8, nullptr, 10);
    else if (std::strncmp(A, "--window=", 9) == 0)
      TOpts.PhaseWindowExecs = std::strtoull(A + 9, nullptr, 10);
    else if (std::strncmp(A, "--topk=", 7) == 0)
      TOpts.PhaseTopK =
          static_cast<uint32_t>(std::strtoul(A + 7, nullptr, 10));
    else if (std::strncmp(A, "--threshold=", 12) == 0)
      TOpts.PhaseThreshold = std::strtod(A + 12, nullptr);
    else {
      usage();
      return 2;
    }
  }
  if (Bench.empty() || Out.empty() ||
      (Cmd == "decode" && TracePath.empty()) ||
      (Cmd != "record" && Cmd != "decode" && Cmd != "counter")) {
    usage();
    return 2;
  }

  PreparedBenchmark B = prepare(findBench(Bench));
  ProfilerOptions Opts = mustParseProfilerSpec(Spec);

  if (Cmd == "record") {
    InterpOptions IO;
    IO.Costs = B.Costs;
    Interpreter I(B.Expanded, IO);
    trace::TraceRecorder Rec(ChunkBytes, Opts.TraceTimestamps);
    I.setTraceRecorder(&Rec);
    if (I.run().FuelExhausted) {
      std::fprintf(stderr, "error: traced %s hung\n", Bench.c_str());
      return 1;
    }
    // The interpreter stamped the cost-model key; add the pipeline
    // version so a decode against a different preparation rejects
    // with a cause instead of a replay desync.
    Rec.setPipelineVersion(PrepPipelineVersion);
    if (!writeFile(Out, trace::writeTraceBinary(Rec.recording()))) {
      std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
      return 1;
    }
    std::printf("recorded %s: %llu bytes (%llu stamp), %zu chunks, "
                "%llu events, %llu stamps\n",
                Bench.c_str(),
                (unsigned long long)Rec.recording().TotalBytes,
                (unsigned long long)Rec.stampBytes(),
                Rec.recording().Chunks.size(),
                (unsigned long long)(Rec.condEvents() + Rec.switchEvents()),
                (unsigned long long)Rec.stampEvents());
    return 0;
  }

  InstrumentationResult IR = instrumentModule(B.Expanded, B.EP, Opts);
  ProfileRuntime RT = IR.makeRuntime();

  if (Cmd == "counter") {
    // Always the counter backend, whatever --spec says: it is the
    // reference every decode is compared against.
    IR.Options.TraceBackend = false;
    InterpOptions IO;
    IO.Costs = B.Costs;
    RunResult Res;
    std::string Err;
    if (!trace::collect(B.Expanded, IR, IO, RT, Res, Err, nullptr, &B.EP)) {
      std::fprintf(stderr, "error: %s: %s\n", Bench.c_str(), Err.c_str());
      return 1;
    }
  } else if (int Rc = decode(B, IR, RT, TracePath, Report, MaxPaths, TOpts))
    return Rc;

  if (!writeFile(Out, writeCountsBinary(countsFromRun(Bench, IR, RT)))) {
    std::fprintf(stderr, "error: cannot write %s\n", Out.c_str());
    return 1;
  }
  return 0;
}
