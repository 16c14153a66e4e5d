//===- bench/Harness.h - Shared experiment driver --------------*- C++ -*-===//
///
/// \file
/// The experiment pipeline every table/figure binary shares, mirroring
/// Section 7's methodology:
///
///   1. generate + calibrate a benchmark (stands in for SPEC2000);
///   2. profile the original code (edge profile + oracle paths);
///   3. inline + unroll guided by that edge profile (Sec. 7.3);
///   4. re-profile the expanded code -- the *self advice* every
///      profiler and every metric uses from here on;
///   5. instrument with PP/TPP/PPP (or an ablation variant, or the
///      trace backend), profile one run through trace::collect, and
///      evaluate accuracy / coverage / instrumented fraction / overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_BENCH_HARNESS_H
#define PPP_BENCH_HARNESS_H

#include "interp/CostModel.h"
#include "metrics/Metrics.h"
#include "obs/Trace.h"
#include "opt/Inliner.h"
#include "opt/Unroller.h"
#include "pass/Pipeline.h"
#include "pathprof/EstimatedProfile.h"
#include "workload/Suite.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace ppp {

class FunctionAnalysisManager;
class ProfileRuntime;

namespace trace {
class TraceDecoder;
struct TraceRecording;
struct DecodeStats;
class PathTimingProfile;
} // namespace trace

namespace bench {

/// A benchmark after generation, expansion, and clean profiling.
struct PreparedBenchmark {
  std::string Name;
  bool IsFp = false;
  CostModel Costs;

  Module Original;
  Module Expanded;
  InlineStats Inline;
  UnrollStats Unroll;

  // Original-code profile (Table 1's left half).
  EdgeProfile EPOrig;
  PathProfile OracleOrig;
  uint64_t CostOrig = 0;
  uint64_t DynInstrsOrig = 0;

  // Expanded-code profile: the self advice (Table 1's right half and
  // everything downstream).
  EdgeProfile EP;
  PathProfile Oracle;
  uint64_t CostBase = 0;
  uint64_t DynInstrs = 0;

  PreparedBenchmark() : OracleOrig(0), Oracle(0) {}
};

/// Runs steps 1-4 for one suite entry. \p Costs selects the cost model
/// (default: the standard model). Steps 2-4 run as a pass pipeline
/// (pass/Pipeline.h): the default spec mirrors the sequence above, and
/// PPP_PIPELINE substitutes a different preparation recipe without
/// recompiling.
///
/// Memoized per process (bench/PrepCache.cpp): the first call for a
/// prepCacheKeyString() key computes it with prepareUncached(), callers
/// of the same key meanwhile wait for that one computation, and every
/// call returns a copy of the stored result. Nothing outlives the
/// process, so a code change is never served what older code computed.
PreparedBenchmark prepare(const BenchmarkSpec &Spec,
                          const CostModel &Costs = CostModel());

/// Steps 1-4 computed afresh on every call. prepare() calls it once
/// per key; tests use it as the ground truth prepare() must equal.
PreparedBenchmark prepareUncached(const BenchmarkSpec &Spec,
                                  const CostModel &Costs = CostModel());

/// Provenance of trace recordings: ppp_timing stamps it into every
/// recording it writes and refuses to decode one stamped with another
/// value. A recording replays one run of the prepared module, so bump
/// this whenever the semantics of steps 1-4 change (the generator,
/// calibrator, inliner, unroller, interpreter costs, or
/// prepareUncached() itself).
///
/// Version history: 1 = hard-coded prepare() sequence; 2 = spec-driven
/// pass pipeline; 3 = CostModel grew TraceByte; 4 = CostModel grew
/// TraceStampByte (timing-annotated tracing); 5 = CostModel grew
/// ProfChainStep (k-iteration path profiling); 6 = prepared benchmarks
/// carry the original code's dynamic instruction count.
inline constexpr uint32_t PrepPipelineVersion = 6;

/// prepare()'s memo key for (\p Spec, \p Costs) prepared under
/// \p PipelineSpec (default: the active preparation pipeline, so
/// PPP_PIPELINE variants get distinct entries): the benchmark name,
/// every workload-generator field, the pipeline flags, the pipeline
/// spec and every cost-model weight. Exposed so tests can pin that
/// each of them changes the key.
std::string
prepCacheKeyString(const BenchmarkSpec &Spec, const CostModel &Costs,
                   const std::string &PipelineSpec = activePreparePipelineSpec());

/// Everything one profiler produced on one benchmark.
struct ProfilerOutcome {
  std::unique_ptr<InstrumentationResult> IR;
  ProfilerRunData Run;
  uint64_t CostInstr = 0;
  double OverheadPct = 0;
  AccuracyResult Acc;
  CoverageResult Cov;
  InstrumentedFraction Frac;
  bool AnyInstrumented = false;
};

/// Runs step 5 for one profiler configuration. \p FAM, when given, must
/// be bound to B.Expanded; instrumentation then shares its cached
/// analyses, so an experiment running several profilers over one
/// prepared benchmark computes the per-function analyses once.
ProfilerOutcome runProfiler(const PreparedBenchmark &B,
                            const ProfilerOptions &Opts,
                            FunctionAnalysisManager *FAM = nullptr);

/// Parallel trace decode: fans decodeChunk() out over \p R's chunks on
/// a runParallel() pool of \p Jobs workers, then stitches sequentially
/// into \p RT. Chunk replay is order-independent and stitch() validates
/// every boundary, so the result is identical to TraceDecoder::decode()
/// at any job count. Returns false (with \p Error set, \p RT possibly
/// partially filled) on a corrupt or mismatched recording.
/// For timed recordings, pass \p Timing to also accumulate the
/// per-path cost-attribution profile; stitch() feeds it sequentially,
/// so it too is identical at any job count.
bool decodeTraceParallel(const trace::TraceDecoder &Dec,
                         const trace::TraceRecording &R, unsigned Jobs,
                         ProfileRuntime &RT, trace::DecodeStats &DS,
                         std::string &Error,
                         trace::PathTimingProfile *Timing = nullptr);

/// Accuracy and coverage of the plain edge profile (the "edge
/// profiling" bars of Figures 9 and 10).
struct EdgeProfilingOutcome {
  AccuracyResult Acc;
  double Coverage = 0;
};

EdgeProfilingOutcome evaluateEdgeProfiling(const PreparedBenchmark &B);

/// \p Base at chain depth \p K: KIterations set and "+kiter<k>"
/// appended to the preset name for K > 1; K == 1 returns \p Base
/// unchanged.
ProfilerOptions atKIterations(ProfilerOptions Base, uint64_t K);

/// The user's worker count for \p NumTasks tasks, which runSuiteParallel
/// and the tools pass on to runParallel(): the PPP_JOBS environment
/// variable when set (clamped to >= 1), otherwise hardware concurrency;
/// never more than \p NumTasks.
unsigned parallelJobs(size_t NumTasks);

/// Telemetry bookkeeping for one runParallel() pool: worker naming
/// (ppp-worker-<i>, visible to external profilers and on PPP_TRACE
/// rows), per-task duration and queue-wait histograms
/// (bench.pool.task_ns / bench.pool.queue_wait_ns), and per-worker
/// utilization gauges (bench.pool.worker.<i>.utilization = busy/wall,
/// how evenly the suite's work spread) in the obs registry, all
/// surfaced by the PPP_METRICS run report. A few atomics per
/// seconds-long task, so it is always on.
class PoolTelemetry {
public:
  PoolTelemetry(unsigned Jobs, size_t NumTasks);

  /// Nanoseconds since the pool was created (a task's queue wait when
  /// called at claim time).
  uint64_t sinceStartNs() const;

  /// Worker \p W is starting (0 = the calling thread, which keeps its
  /// name; spawned workers are named ppp-worker-<W>).
  void workerBegin(unsigned W) const;

  /// One task finished: \p TaskNs run time, claimed \p WaitNs after
  /// pool creation.
  void taskDone(uint64_t TaskNs, uint64_t WaitNs) const;

  /// Worker \p W ran out of tasks after \p BusyNs of task time.
  void workerEnd(unsigned W, uint64_t BusyNs) const;

private:
  std::chrono::steady_clock::time_point Start;
};

/// Runs \p Work(Item) for every item on a pool of \p Jobs threads (the
/// calling thread alone when \p Jobs <= 1) and returns the results in
/// input order, regardless of completion order. \p Name(Item) labels the
/// item's trace span ("task:<name>"). Work must be deterministic per
/// item and must not print (print from the returned rows); under those
/// rules the results are identical to a serial loop.
template <typename T, typename NameFn, typename WorkFn>
auto runParallel(const std::vector<T> &Items, unsigned Jobs, NameFn Name,
                 WorkFn Work)
    -> std::vector<std::invoke_result_t<WorkFn, const T &>> {
  using Result = std::invoke_result_t<WorkFn, const T &>;
  using Clock = std::chrono::steady_clock;
  std::vector<Result> Out(Items.size());
  PoolTelemetry Tel(Jobs, Items.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&](unsigned W) {
    Tel.workerBegin(W);
    uint64_t BusyNs = 0;
    for (size_t I; (I = Next.fetch_add(1)) < Items.size();) {
      uint64_t WaitNs = Tel.sinceStartNs();
      obs::ScopedSpan Span("task:", Name(Items[I]), "bench");
      Clock::time_point T0 = Clock::now();
      Out[I] = Work(Items[I]);
      uint64_t TaskNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               T0)
              .count());
      BusyNs += TaskNs;
      Tel.taskDone(TaskNs, WaitNs);
    }
    Tel.workerEnd(W, BusyNs);
  };
  if (Jobs <= 1) {
    Worker(0);
    return Out;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Jobs - 1);
  for (unsigned W = 1; W < Jobs; ++W)
    Pool.emplace_back(Worker, W);
  Worker(0);
  for (std::thread &Th : Pool)
    Th.join();
  return Out;
}

/// runParallel() over the benchmark suite on parallelJobs() workers,
/// with spans labeled by benchmark name. Each prepare()/runProfiler()
/// pipeline is deterministic and touches only per-benchmark state, so
/// the results (and anything printed from them afterwards, in order)
/// are identical to a serial loop.
template <typename WorkFn>
auto runSuiteParallel(const std::vector<BenchmarkSpec> &Specs, WorkFn Work)
    -> std::vector<std::invoke_result_t<WorkFn, const BenchmarkSpec &>> {
  return runParallel(
      Specs, parallelJobs(Specs.size()),
      [](const BenchmarkSpec &Spec) -> const std::string & {
        return Spec.Name;
      },
      Work);
}

/// Prints "name  v1  v2 ..." rows with fixed-width columns.
void printRow(const std::string &Name, const std::vector<double> &Vals,
              const char *Fmt = "%10.2f");
void printHeader(const std::string &Name,
                 const std::vector<std::string> &Cols);

} // namespace bench
} // namespace ppp

#endif // PPP_BENCH_HARNESS_H
