//===- bench/PrepCache.cpp - prepare()'s per-process memo -------------------===//
///
/// \file
/// One preparation per (benchmark, cost model, pipeline spec) per
/// process: prepare() looks its key up in a process-wide table, the
/// first caller computes the entry with prepareUncached(), and later
/// callers (in suite_all, every experiment after the first) copy it.
/// The hit/miss counts are the obs counters cache.prep.hit.mem and
/// cache.prep.miss, emitted with the PPP_METRICS run report.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Obs.h"
#include "obs/Trace.h"
#include "support/Format.h"

#include <memory>
#include <mutex>
#include <unordered_map>

using namespace ppp;
using namespace ppp::bench;

// The key string enumerates every field below by hand. This assert
// fires when a field is added, as a reminder to extend the key.
static_assert(sizeof(CostModel) == 15 * sizeof(uint32_t),
              "CostModel changed; update prepCacheKeyString");

std::string ppp::bench::prepCacheKeyString(const BenchmarkSpec &Spec,
                                           const CostModel &Costs,
                                           const std::string &PipelineSpec) {
  const WorkloadParams &P = Spec.Params;
  std::string K;
  K += formatString("pipeline-spec %s\n", PipelineSpec.c_str());
  K += formatString("bench %s fp %d inline %d target %llu\n",
                    Spec.Name.c_str(), Spec.IsFp ? 1 : 0,
                    Spec.AllowInlining ? 1 : 0,
                    (unsigned long long)Spec.TargetDynInstrs);
  K += formatString(
      "workload %s seed %llu funcs %u leaf %u leafbias %u stmts %u-%u "
      "depth %u\n",
      P.Name.c_str(), (unsigned long long)P.Seed, P.NumFunctions,
      P.LeafFunctions, P.LeafCallBiasPct, P.TopStmtsMin, P.TopStmtsMax,
      P.MaxDepth);
  K += formatString(
      "stmtmix if %u loop %u switch %u call %u ops %u-%u mem %u\n", P.IfPct,
      P.LoopPct, P.SwitchPct, P.CallPct, P.OpsMin, P.OpsMax, P.MemOpPct);
  K += formatString(
      "shape skewif %u skew %u-%u trip %u-%u hot %u hottrip %u-%u arms "
      "%u-%u trips %llu\n",
      P.SkewedIfPct, P.SkewMin, P.SkewMax, P.TripMin, P.TripMax,
      P.HotLoopPct, P.HotTripMin, P.HotTripMax, P.SwitchArmsMin,
      P.SwitchArmsMax, (unsigned long long)P.MainLoopTrips);
  K += formatString(
      "costs %u %u %u %u %u %u %u %u %u %u %u %u %u %u %u\n", Costs.Simple,
      Costs.Mul, Costs.Div, Costs.Mem, Costs.CallOverhead,
      Costs.RetOverhead, Costs.Branch, Costs.Multiway, Costs.ProfReg,
      Costs.ProfCountArray, Costs.ProfCountHash, Costs.PoisonCheck,
      Costs.TraceByte, Costs.TraceStampByte, Costs.ProfChainStep);
  return K;
}

PreparedBenchmark ppp::bench::prepare(const BenchmarkSpec &Spec,
                                      const CostModel &Costs) {
  struct Entry {
    std::once_flag Computed;
    PreparedBenchmark B;
  };
  static std::mutex Mu;
  static std::unordered_map<std::string, std::unique_ptr<Entry>> Memo;
  static obs::Counter &Hits = obs::counter("cache.prep.hit.mem");
  static obs::Counter &Misses = obs::counter("cache.prep.miss");

  obs::ScopedSpan Span("prepare:", Spec.Name, "cache");
  std::string Key = prepCacheKeyString(Spec, Costs);
  Entry *E;
  {
    std::lock_guard<std::mutex> L(Mu);
    std::unique_ptr<Entry> &Slot = Memo[Key];
    if (!Slot)
      Slot = std::make_unique<Entry>();
    E = Slot.get();
  }
  // Entries are never erased, so E stays valid; call_once makes
  // concurrent callers of one key wait for a single computation.
  bool Miss = false;
  std::call_once(E->Computed, [&] {
    E->B = prepareUncached(Spec, Costs);
    Miss = true;
  });
  (Miss ? Misses : Hits).inc();
  return E->B;
}
