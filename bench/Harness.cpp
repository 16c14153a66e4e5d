//===- bench/Harness.cpp - Shared experiment driver --------------------------===//

#include "Harness.h"

#include "obs/Obs.h"
#include "pass/AnalysisManager.h"
#include "pass/Pipeline.h"
#include "support/Format.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"
#include "trace/TraceDecoder.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace ppp;
using namespace ppp::bench;

PoolTelemetry::PoolTelemetry(unsigned Jobs, size_t NumTasks)
    : Start(std::chrono::steady_clock::now()) {
  obs::counter("bench.pool.runs").inc();
  obs::gauge("bench.pool.jobs").set(Jobs);
  obs::counter("bench.pool.tasks").inc(NumTasks);
}

uint64_t PoolTelemetry::sinceStartNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

void PoolTelemetry::workerBegin(unsigned W) const {
  if (W > 0)
    obs::traceThreadName(formatString("ppp-worker-%u", W));
}

void PoolTelemetry::taskDone(uint64_t TaskNs, uint64_t WaitNs) const {
  obs::histogram("bench.pool.task_ns").record(TaskNs);
  obs::histogram("bench.pool.queue_wait_ns").record(WaitNs);
}

void PoolTelemetry::workerEnd(unsigned W, uint64_t BusyNs) const {
  uint64_t WallNs = sinceStartNs();
  obs::counter(formatString("bench.pool.worker.%u.busy_ns", W)).inc(BusyNs);
  obs::gauge(formatString("bench.pool.worker.%u.utilization", W))
      .set(WallNs ? static_cast<double>(BusyNs) / static_cast<double>(WallNs)
                  : 0);
}

ProfilerOptions ppp::bench::atKIterations(ProfilerOptions Base, uint64_t K) {
  if (K <= 1)
    return Base;
  Base.KIterations = K;
  Base.Name += "+kiter" + std::to_string(K);
  return Base;
}

unsigned ppp::bench::parallelJobs(size_t NumTasks) {
  unsigned Jobs = 0;
  if (const char *E = std::getenv("PPP_JOBS")) {
    long V = std::strtol(E, nullptr, 10);
    Jobs = V > 0 ? static_cast<unsigned>(V) : 1;
  }
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<size_t>(Jobs, std::max<size_t>(NumTasks, 1)));
}

PreparedBenchmark ppp::bench::prepareUncached(const BenchmarkSpec &Spec,
                                              const CostModel &Costs) {
  obs::ScopedSpan Span("prepare.compute:", Spec.Name, "bench");
  PreparedBenchmark B;
  B.Name = Spec.Name;
  B.IsFp = Spec.IsFp;
  B.Costs = Costs;
  B.Original = buildCalibrated(Spec);
  B.Expanded = B.Original;

  // Steps 2-4 as a pass pipeline (Sec. 7.3 expansion between clean
  // profiling runs). The default spec reproduces the historical
  // hard-coded sequence exactly; PPP_PIPELINE substitutes another.
  std::string SpecStr = activePreparePipelineSpec();
  ModulePassManager MPM;
  std::string Error;
  if (!parsePipeline(SpecStr, MPM, Error)) {
    fprintf(stderr, "error: PPP_PIPELINE: %s\n", Error.c_str());
    exit(1);
  }
  PassContext Ctx;
  Ctx.BenchCosts = Costs;
  Ctx.AllowInlining = Spec.AllowInlining;
  FunctionAnalysisManager FAM(B.Expanded);
  if (!MPM.run(B.Expanded, FAM, Ctx)) {
    fprintf(stderr, "error: %s\n", Ctx.Error.c_str());
    exit(1);
  }
  if (Ctx.Profiles.empty()) {
    fprintf(stderr, "error: pipeline '%s' collected no profile\n",
            SpecStr.c_str());
    exit(1);
  }

  // First snapshot: the original code (B.Expanded was still identical
  // to B.Original when the first profile pass ran). Last snapshot: the
  // expanded code's self advice under the chosen cost model.
  const CleanProfile &First = Ctx.Profiles.front();
  B.EPOrig = First.EP;
  B.OracleOrig = First.Oracle;
  B.CostOrig = First.Res.Cost;
  B.DynInstrsOrig = First.Res.DynInstrs;
  CleanProfile &Last = Ctx.Profiles.back();
  B.Inline = Ctx.Inline;
  B.Unroll = Ctx.Unroll;
  B.CostBase = Last.Res.Cost;
  B.DynInstrs = Last.Res.DynInstrs;
  B.EP = std::move(Last.EP);
  B.Oracle = std::move(Last.Oracle);
  return B;
}

ProfilerOutcome ppp::bench::runProfiler(const PreparedBenchmark &B,
                                        const ProfilerOptions &Opts,
                                        FunctionAnalysisManager *FAM) {
  ProfilerOutcome Out;
  Out.IR = std::make_unique<InstrumentationResult>(
      FAM ? instrumentModule(B.Expanded, B.EP, Opts, *FAM)
          : instrumentModule(B.Expanded, B.EP, Opts));

  ProfileRuntime RT = Out.IR->makeRuntime();
  InterpOptions IO;
  IO.Costs = B.Costs;
  RunResult Res;
  std::string Error;
  trace::PathTimingProfile Timing;
  if (!trace::collect(B.Expanded, *Out.IR, IO, RT, Res, Error, &Timing,
                      &B.EP)) {
    fprintf(stderr, "error: %s (%s): %s\n", B.Name.c_str(), Opts.Name.c_str(),
            Error.c_str());
    exit(1);
  }
  if (Opts.TraceTimestamps) {
    Timing.finishPhases();
    Timing.flushMetrics();
  }
  Out.CostInstr = Res.Cost;
  Out.OverheadPct = overheadPercent(B.CostBase, Res.Cost);

  Out.Run = buildEstimatedProfile(B.Expanded, B.EP, *Out.IR, RT);
  for (const FunctionPlan &P : Out.IR->Plans)
    Out.AnyInstrumented |= P.Instrumented;

  // Sec. 6.1: if the profiler adds no instrumentation at all (swim,
  // mgrid), select estimates from a potential-flow profile so accuracy
  // is comparable to edge profiling.
  if (Out.AnyInstrumented) {
    Out.Acc = computeAccuracy(B.Oracle, Out.Run.Estimated,
                              FlowMetric::Branch);
  } else {
    uint64_t HotCut = static_cast<uint64_t>(
        DefaultHotFraction *
        static_cast<double>(B.Oracle.totalFlow(FlowMetric::Branch)) / 2.0);
    PathProfile Pot = estimateFromEdgeProfile(
        B.Expanded, B.EP, FlowKind::Potential, HotCut, FlowMetric::Branch);
    Out.Acc = computeAccuracy(B.Oracle, Pot, FlowMetric::Branch);
  }

  Out.Cov =
      computeProfilerCoverage(*Out.IR, Out.Run, B.Oracle, FlowMetric::Branch);
  Out.Frac = computeInstrumentedFraction(*Out.IR, B.Oracle);
  return Out;
}

bool ppp::bench::decodeTraceParallel(const trace::TraceDecoder &Dec,
                                     const trace::TraceRecording &R,
                                     unsigned Jobs, ProfileRuntime &RT,
                                     trace::DecodeStats &DS,
                                     std::string &Error,
                                     trace::PathTimingProfile *Timing) {
  struct Task {
    size_t Idx;
    std::string Label;
  };
  struct ChunkOut {
    bool Ok = false;
    trace::ChunkDecodeResult Res;
    std::string Err;
  };
  std::vector<Task> Tasks;
  Tasks.reserve(R.Chunks.size());
  for (size_t I = 0; I < R.Chunks.size(); ++I)
    Tasks.push_back({I, formatString("chunk%zu", I)});
  std::vector<ChunkOut> Outs = runParallel(
      Tasks, Jobs, [](const Task &T) -> const std::string & { return T.Label; },
      [&](const Task &T) {
        ChunkOut O;
        O.Ok = Dec.decodeChunk(R, T.Idx, O.Res, O.Err);
        return O;
      });
  std::vector<trace::ChunkDecodeResult> Chunks;
  Chunks.reserve(Outs.size());
  for (ChunkOut &O : Outs) {
    if (!O.Ok) {
      Error = O.Err;
      return false;
    }
    Chunks.push_back(std::move(O.Res));
  }
  return Dec.stitch(R, Chunks, RT, DS, Error, Timing);
}

EdgeProfilingOutcome
ppp::bench::evaluateEdgeProfiling(const PreparedBenchmark &B) {
  EdgeProfilingOutcome Out;
  uint64_t HotCut = static_cast<uint64_t>(
      DefaultHotFraction *
      static_cast<double>(B.Oracle.totalFlow(FlowMetric::Branch)) / 2.0);
  PathProfile Pot = estimateFromEdgeProfile(
      B.Expanded, B.EP, FlowKind::Potential, HotCut, FlowMetric::Branch);
  Out.Acc = computeAccuracy(B.Oracle, Pot, FlowMetric::Branch);
  Out.Coverage =
      computeEdgeCoverage(B.Expanded, B.EP, B.Oracle, FlowMetric::Branch);
  return Out;
}

void ppp::bench::printRow(const std::string &Name,
                          const std::vector<double> &Vals, const char *Fmt) {
  printf("%-10s", Name.c_str());
  for (double V : Vals)
    printf(Fmt, V);
  printf("\n");
}

void ppp::bench::printHeader(const std::string &Name,
                             const std::vector<std::string> &Cols) {
  printf("%-10s", Name.c_str());
  for (const std::string &C : Cols)
    printf("%10s", C.c_str());
  printf("\n");
}
