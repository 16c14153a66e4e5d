//===- tests/prepcache_test.cpp - prepare()'s per-process memo --------------===//
///
/// Pins the contract of the preparation memo (bench/PrepCache.cpp): a
/// prepare() result is indistinguishable from prepareUncached(), each
/// key is computed once per process (concurrent first callers
/// included), and every input of the preparation changes the key.

#include "TestUtil.h"

#include "Harness.h"

#include "obs/Obs.h"

#include <latch>
#include <string>
#include <thread>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// A tiny, fast spec (one prepare() takes a few milliseconds). The
/// memo lives as long as the process, so every test that counts memo
/// hits and misses prepares its own seed.
BenchmarkSpec tinySpec(uint64_t Seed = 4242) {
  BenchmarkSpec Spec;
  Spec.Name = "cachetest";
  Spec.Params.Seed = Seed;
  Spec.Params.Name = Spec.Name;
  Spec.Params.NumFunctions = 4;
  Spec.Params.TopStmtsMin = 3;
  Spec.Params.TopStmtsMax = 6;
  Spec.Params.MaxDepth = 3;
  Spec.Params.IfPct = 30;
  Spec.Params.LoopPct = 15;
  Spec.Params.SwitchPct = 8;
  Spec.Params.CallPct = 12;
  Spec.TargetDynInstrs = 60'000;
  return Spec;
}

void expectEqualPrepared(const PreparedBenchmark &A,
                         const PreparedBenchmark &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.IsFp, B.IsFp);
  EXPECT_EQ(A.Costs.key(), B.Costs.key());
  EXPECT_TRUE(A.Original == B.Original);
  EXPECT_TRUE(A.Expanded == B.Expanded);
  EXPECT_EQ(A.Inline.SitesInlined, B.Inline.SitesInlined);
  EXPECT_EQ(A.Unroll.LoopsUnrolled, B.Unroll.LoopsUnrolled);
  EXPECT_TRUE(A.EPOrig == B.EPOrig);
  EXPECT_TRUE(A.EP == B.EP);
  EXPECT_EQ(A.CostOrig, B.CostOrig);
  EXPECT_EQ(A.CostBase, B.CostBase);
  EXPECT_EQ(A.DynInstrs, B.DynInstrs);
  EXPECT_EQ(A.DynInstrsOrig, B.DynInstrsOrig);
  EXPECT_EQ(A.Oracle.totalFreq(), B.Oracle.totalFreq());
  EXPECT_EQ(A.Oracle.distinctPaths(), B.Oracle.distinctPaths());
  EXPECT_EQ(A.Oracle.totalFlow(FlowMetric::Branch),
            B.Oracle.totalFlow(FlowMetric::Branch));
  EXPECT_EQ(A.OracleOrig.totalFreq(), B.OracleOrig.totalFreq());
  EXPECT_EQ(A.OracleOrig.distinctPaths(), B.OracleOrig.distinctPaths());
}

/// The memo's hit and miss counts so far.
struct MemoCounts {
  uint64_t Hits = obs::counter("cache.prep.hit.mem").value();
  uint64_t Misses = obs::counter("cache.prep.miss").value();
};

TEST(PrepCache, MemoEqualsUncached) {
  BenchmarkSpec Spec = tinySpec(4242);
  expectEqualPrepared(prepare(Spec), prepareUncached(Spec));
  expectEqualPrepared(prepare(Spec, CostModel::alpha21164()),
                      prepareUncached(Spec, CostModel::alpha21164()));
}

TEST(PrepCache, SecondCallIsOneMemoryHit) {
  BenchmarkSpec Spec = tinySpec(4243);
  MemoCounts Before;
  PreparedBenchmark First = prepare(Spec);
  MemoCounts AfterFirst;
  EXPECT_EQ(AfterFirst.Misses - Before.Misses, 1u);
  EXPECT_EQ(AfterFirst.Hits - Before.Hits, 0u);

  PreparedBenchmark Again = prepare(Spec);
  MemoCounts AfterAgain;
  EXPECT_EQ(AfterAgain.Hits - AfterFirst.Hits, 1u);
  EXPECT_EQ(AfterAgain.Misses - AfterFirst.Misses, 0u);
  expectEqualPrepared(Again, First);
}

TEST(PrepCache, EveryInputChangesTheKey) {
  BenchmarkSpec Spec = tinySpec();
  CostModel Costs;
  std::string Base = prepCacheKeyString(Spec, Costs);
  EXPECT_EQ(prepCacheKeyString(tinySpec(), CostModel()), Base);

  // Every BenchmarkSpec field, the generator's included.
  std::vector<void (*)(BenchmarkSpec &)> SpecEdits = {
      [](BenchmarkSpec &S) { S.Name += "x"; },
      [](BenchmarkSpec &S) { S.IsFp = !S.IsFp; },
      [](BenchmarkSpec &S) { S.AllowInlining = !S.AllowInlining; },
      [](BenchmarkSpec &S) { S.TargetDynInstrs *= 2; },
      [](BenchmarkSpec &S) { S.Params.Seed += 1; },
      [](BenchmarkSpec &S) { S.Params.Name += "x"; },
      [](BenchmarkSpec &S) { S.Params.MainLoopTrips += 1; },
  };
  for (unsigned WorkloadParams::*Knob :
       {&WorkloadParams::NumFunctions, &WorkloadParams::LeafFunctions,
        &WorkloadParams::LeafCallBiasPct, &WorkloadParams::TopStmtsMin,
        &WorkloadParams::TopStmtsMax, &WorkloadParams::MaxDepth,
        &WorkloadParams::IfPct, &WorkloadParams::LoopPct,
        &WorkloadParams::SwitchPct, &WorkloadParams::CallPct,
        &WorkloadParams::OpsMin, &WorkloadParams::OpsMax,
        &WorkloadParams::MemOpPct, &WorkloadParams::SkewedIfPct,
        &WorkloadParams::SkewMin, &WorkloadParams::SkewMax,
        &WorkloadParams::TripMin, &WorkloadParams::TripMax,
        &WorkloadParams::HotLoopPct, &WorkloadParams::HotTripMin,
        &WorkloadParams::HotTripMax, &WorkloadParams::SwitchArmsMin,
        &WorkloadParams::SwitchArmsMax}) {
    BenchmarkSpec Edited = Spec;
    Edited.Params.*Knob += 1;
    EXPECT_NE(prepCacheKeyString(Edited, Costs), Base);
  }
  for (auto Edit : SpecEdits) {
    BenchmarkSpec Edited = Spec;
    Edit(Edited);
    EXPECT_NE(prepCacheKeyString(Edited, Costs), Base);
  }

  // Every cost-model weight (fig12's alpha model shares the memo).
  constexpr uint32_t CostModel::*Weights[] = {
      &CostModel::Simple,         &CostModel::Mul,
      &CostModel::Div,            &CostModel::Mem,
      &CostModel::CallOverhead,   &CostModel::RetOverhead,
      &CostModel::Branch,         &CostModel::Multiway,
      &CostModel::ProfReg,        &CostModel::ProfCountArray,
      &CostModel::ProfCountHash,  &CostModel::PoisonCheck,
      &CostModel::TraceByte,      &CostModel::TraceStampByte,
      &CostModel::ProfChainStep};
  static_assert(std::size(Weights) * sizeof(uint32_t) == sizeof(CostModel),
                "a CostModel weight is missing from this list");
  for (uint32_t CostModel::*W : Weights) {
    CostModel Edited;
    Edited.*W += 1;
    EXPECT_NE(prepCacheKeyString(Spec, Edited), Base);
  }

  // The preparation pipeline spec: a PPP_PIPELINE variant gets its own
  // entry, and the default argument is the active spec.
  EXPECT_NE(prepCacheKeyString(Spec, Costs, "profile,unroll,profile<bench>"),
            Base);
  EXPECT_EQ(prepCacheKeyString(Spec, Costs, activePreparePipelineSpec()),
            Base);
}

TEST(PrepCache, ConcurrentFirstCallsComputeOnce) {
  // Long enough (~25 ms) that all four first calls overlap.
  BenchmarkSpec Spec = tinySpec(4244);
  Spec.TargetDynInstrs = 1'500'000;
  PreparedBenchmark Truth = prepareUncached(Spec);
  MemoCounts Before;

  constexpr unsigned Threads = 4;
  std::vector<PreparedBenchmark> Results(Threads);
  std::latch Go(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Go.arrive_and_wait();
      Results[T] = prepare(Spec);
    });
  for (std::thread &Th : Pool)
    Th.join();

  for (const PreparedBenchmark &R : Results)
    expectEqualPrepared(R, Truth);
  MemoCounts After;
  EXPECT_EQ(After.Misses - Before.Misses, 1u);
  EXPECT_EQ(After.Hits - Before.Hits, Threads - 1);
}

} // namespace
