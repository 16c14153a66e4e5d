//===- perfbench/Stats.cpp - Clocks, quantiles, the report -----------------===//

#include "Bench.h"
#include "Stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pb;

uint64_t pb::nowNs() {
  static const Clock::time_point Origin = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Origin)
          .count());
}

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

Tail pb::tailOf(const std::vector<double> &V) {
  static const double Ladder[] = {95, 90, 75};
  Tail T;
  for (double P : Ladder)
    if (static_cast<double>(V.size()) * (100 - P) / 100 >= 10) {
      T.Percentile = P;
      break;
    }
  T.Value = quantile(V, T.Percentile / 100);
  return T;
}

double pb::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

// End-to-end metrics (untraced runs). Must match BENCHMARK.json.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},           {"cycles_per_s", "1/s"},
    {"cycle_p50_ms", "ms"},     {"cycle_tail_ms", "ms"},
    {"clean_mips", "MIPS"},     {"profiled_mips", "MIPS"},
    {"merges_per_s", "1/s"},    {"query_p50_ms", "ms"},
    {"query_tail_ms", "ms"},    {"peak_rss_mb", "MiB"},
};

// Per-profiler layer metrics; one metric per entry and profiler.
const MetricDef PerProfiler[] = {
    {"pathprof.instrument_ms", "ms"},
    {"pathprof.funcs_instrumented", "count"},
    {"pathprof.funcs_hashed", "count"},
    {"pathprof.static_ops", "count"},
    {"pathprof.paths", "count"},
    {"interp.profiled_run_ms", "ms"},
    {"interp.run_ratio", "ratio"},
    {"interp.model_ratio", "ratio"},
    {"interp.stored", "count"},
    {"interp.lost", "count"},
    {"interp.cold", "count"},
    {"interp.stored_frac", "frac"},
    {"flow.estimate_ms", "ms"},
    {"flow.paths_estimated", "count"},
};

// Remaining per-layer metrics (traced runs). Must match BENCHMARK.json.
const MetricDef PerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"workload.modules", "count"},
    {"workload.dyn_instrs", "count"},
    {"pass.prepare_ms", "ms"},
    {"opt.sites_inlined", "count"},
    {"opt.loops_unrolled", "count"},
    {"interp.clean_run_ms", "ms"},
    {"interp.run_ratio.aa", "ratio"},
    {"trace.record_bytes", "bytes"},
    {"trace.events", "count"},
    {"trace.decode_ms", "ms"},
    {"trace.decode_eps", "1/s"},
    {"serve.agg_ingest_per_s", "1/s"},
    {"serve.fast_frac", "frac"},
    {"serve.probes_per_merge", "ratio"},
    {"serve.overflow_keys", "count"},
    {"serve.decay_ms", "ms"},
    {"serve.query_sched_lag_ms", "ms"},
    {"serve.sessions_clean", "count"},
    {"serve.sessions_failed", "count"},
    {"fail_frac", "frac"},
    {"tracing.overhead_frac", "frac"},
    {"self_ms.generate", "ms"},
    {"self_ms.prepare", "ms"},
    {"self_ms.cycle", "ms"},
    {"self_ms.instrument", "ms"},
    {"self_ms.run", "ms"},
    {"self_ms.decode", "ms"},
    {"self_ms.estimate", "ms"},
    {"self_ms.query", "ms"},
    {"self_ms.export", "ms"},
    {"self_ms.merge", "ms"},
    {"self_ms.round", "ms"},
    {"self_ms.session", "ms"},
    {"self_ms.connect", "ms"},
    {"self_ms.send", "ms"},
    {"self_ms.ack", "ms"},
    {"self_ms.quiesce", "ms"},
    {"self_ms.decay", "ms"},
    {"self_ms.agg_ingest", "ms"},
};

} // namespace

Report::Report() {
  auto Add = [this](const std::string &Name, const char *Unit, bool E2E) {
    Metrics[Name] = {Unit, E2E, 0};
    Order.push_back(Name);
  };
  for (const MetricDef &D : EndToEnd)
    Add(D.Name, D.Unit, true);
  for (const MetricDef &D : PerLayer)
    Add(D.Name, D.Unit, false);
  for (const MetricDef &D : PerProfiler)
    for (const ppp::ProfilerOptions &P : cycleProfilers())
      Add(std::string(D.Name) + "." + P.Name, D.Unit, false);
}

void Report::set(const std::string &Name, double Value) {
  auto It = Metrics.find(Name);
  if (It == Metrics.end()) {
    fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
            Name.c_str());
    std::exit(3);
  }
  It->second.Value = Value;
}

double Report::get(const std::string &Name) const {
  auto It = Metrics.find(Name);
  return It == Metrics.end() ? 0 : It->second.Value;
}

void Report::attempt(bool Ok) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    Correct = false;
  }
}

void Report::fail(const std::string &What) {
  fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  attempt(false);
}

void Report::print(bool Trace) const {
  printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const std::string &Name : Order) {
    const Metric &M = Metrics.at(Name);
    if (M.EndToEnd == Trace)
      continue;
    printf("%-36s %16.6g  %s\n", Name.c_str(), M.Value, M.Unit.c_str());
  }
  printf("attempted %llu, failed %llu, correct %s\n",
         static_cast<unsigned long long>(Attempted),
         static_cast<unsigned long long>(Failed), Correct ? "yes" : "no");

  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  char Buf[256];
  snprintf(Buf, sizeof(Buf), ", \"attempted\": %llu, \"failed\": %llu",
           static_cast<unsigned long long>(Attempted),
           static_cast<unsigned long long>(Failed));
  Json += Buf;
  Json += ", \"metrics\": {";
  bool First = true;
  for (const std::string &Name : Order) {
    const Metric &M = Metrics.at(Name);
    if (M.EndToEnd == Trace)
      continue;
    double V = std::isfinite(M.Value) ? M.Value : 0;
    snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             First ? "" : ", ", Name.c_str(), V, M.Unit.c_str());
    Json += Buf;
    First = false;
  }
  Json += "}}";
  printf("%s\n", Json.c_str());
  fflush(stdout);
}
