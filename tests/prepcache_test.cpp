//===- tests/prepcache_test.cpp - Preparation cache tests ---------------------===//
///
/// Pins the contract of bench/PrepCache: a cached prepare() result is
/// indistinguishable from an uncached one, every key field participates
/// in invalidation, and damaged entries are rebuilt rather than served.

#include "TestUtil.h"

#include "Harness.h"
#include "PrepCache.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// A tiny, fast spec (one prepare() takes a few milliseconds).
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

/// RAII: point the cache at a fresh private directory, restore the
/// environment-driven configuration (and drop the memory layer) after.
class ScopedCacheDir {
public:
  ScopedCacheDir() {
    std::error_code Ec;
    Dir = (std::filesystem::temp_directory_path(Ec) /
           ("ppp-cachetest-" + std::to_string(::getpid()) + "-" +
            std::to_string(++Seq)))
              .string();
    std::filesystem::remove_all(Dir, Ec);
    prepCacheOverride(Dir, true);
    prepCacheClearMemory();
    prepCacheResetCounters();
  }
  ~ScopedCacheDir() {
    prepCacheOverride("", true);
    prepCacheClearMemory();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  const std::string &dir() const { return Dir; }

private:
  std::string Dir;
  static unsigned Seq;
};
unsigned ScopedCacheDir::Seq = 0;

void expectEqualPrepared(const PreparedBenchmark &A,
                         const PreparedBenchmark &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.IsFp, B.IsFp);
  EXPECT_TRUE(A.Original == B.Original);
  EXPECT_TRUE(A.Expanded == B.Expanded);
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

TEST(PrepCache, DiskRoundTripEqualsUncached) {
  ScopedCacheDir Cache;
  BenchmarkSpec Spec = tinySpec();
  PreparedBenchmark Truth = prepareUncached(Spec);

  std::shared_ptr<const PreparedBenchmark> First =
      prepareShared(Spec, CostModel());
  ASSERT_NE(First, nullptr);
  expectEqualPrepared(*First, Truth);
  EXPECT_EQ(prepCacheCounters().Misses, 1u);

  // Second call in-process: memory hit, same object.
  std::shared_ptr<const PreparedBenchmark> Again =
      prepareShared(Spec, CostModel());
  EXPECT_EQ(Again.get(), First.get());
  EXPECT_EQ(prepCacheCounters().MemHits, 1u);

  // Drop the memory layer: the result now comes from disk and must
  // still be indistinguishable from a fresh computation.
  prepCacheClearMemory();
  std::shared_ptr<const PreparedBenchmark> FromDisk =
      prepareShared(Spec, CostModel());
  ASSERT_NE(FromDisk, nullptr);
  EXPECT_NE(FromDisk.get(), First.get());
  expectEqualPrepared(*FromDisk, Truth);
  PrepCacheCounters C = prepCacheCounters();
  EXPECT_EQ(C.DiskHits, 1u);
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Corrupt, 0u);
}

TEST(PrepCache, DisabledCacheReturnsNull) {
  ScopedCacheDir Cache;
  prepCacheOverride(Cache.dir(), false);
  EXPECT_FALSE(prepCacheEnabled());
  EXPECT_EQ(prepareShared(tinySpec(), CostModel()), nullptr);
  // prepare() still works -- it falls back to the uncached pipeline.
  PreparedBenchmark B = prepare(tinySpec());
  EXPECT_EQ(B.Name, "cachetest");
  prepCacheOverride(Cache.dir(), true);
}

TEST(PrepCache, EveryKeyFieldInvalidates) {
  BenchmarkSpec Spec = tinySpec();
  CostModel Costs;
  std::string Base = prepCacheKeyString(Spec, Costs);

  // Same inputs: same key (the whole point of content addressing).
  EXPECT_EQ(prepCacheKeyString(tinySpec(), CostModel()), Base);

  // Seed change.
  BenchmarkSpec Seeded = tinySpec(4243);
  EXPECT_NE(prepCacheKeyString(Seeded, Costs), Base);

  // Any workload knob.
  BenchmarkSpec Knob = tinySpec();
  Knob.Params.LoopPct += 1;
  EXPECT_NE(prepCacheKeyString(Knob, Costs), Base);

  // Pipeline flags and calibration target.
  BenchmarkSpec NoInline = tinySpec();
  NoInline.AllowInlining = false;
  EXPECT_NE(prepCacheKeyString(NoInline, Costs), Base);
  BenchmarkSpec Bigger = tinySpec();
  Bigger.TargetDynInstrs *= 2;
  EXPECT_NE(prepCacheKeyString(Bigger, Costs), Base);

  // Cost-model change (fig12's alpha sweep shares the cache dir).
  CostModel Alpha;
  Alpha.ProfCountHash += 1;
  EXPECT_NE(prepCacheKeyString(Spec, Alpha), Base);

  // Pipeline version bump invalidates everything at once.
  EXPECT_NE(prepCacheKeyString(Spec, Costs, PrepPipelineVersion + 1), Base);

  // The preparation pipeline spec participates: a PPP_PIPELINE variant
  // addresses a distinct entry, and the default spec is what the
  // zero-argument key uses.
  EXPECT_NE(prepCacheKeyString(Spec, Costs, PrepPipelineVersion,
                               "profile,unroll,profile<bench>"),
            Base);
  EXPECT_EQ(prepCacheKeyString(Spec, Costs, PrepPipelineVersion,
                               activePreparePipelineSpec()),
            Base);
  // The spec is embedded verbatim, so the key text itself documents
  // which recipe produced the entry.
  EXPECT_NE(Base.find(activePreparePipelineSpec()), std::string::npos);

  // Distinct keys mean distinct content addresses (files never alias).
  EXPECT_NE(prepCacheKeyHash(Base),
            prepCacheKeyHash(prepCacheKeyString(Seeded, Costs)));
}

TEST(PrepCache, KeyEchoTurnsCollisionsIntoMisses) {
  ScopedCacheDir Cache;
  BenchmarkSpec Spec = tinySpec();
  PreparedBenchmark B = prepareUncached(Spec);
  std::string Key = prepCacheKeyString(Spec, CostModel());
  std::string Blob = serializePrepared(B, Key);

  PreparedBenchmark Out;
  std::string Error;
  EXPECT_TRUE(deserializePrepared(Blob, Key, Out, Error)) << Error;
  expectEqualPrepared(Out, B);

  // The same bytes presented under a different key (what a hash
  // collision would look like) must be rejected, not trusted.
  std::string OtherKey = prepCacheKeyString(tinySpec(9999), CostModel());
  EXPECT_FALSE(deserializePrepared(Blob, OtherKey, Out, Error));
}

/// Damages the one cache entry in \p Dir with \p Damage(path) and
/// checks the next prepareShared() rebuilds correct results.
template <typename DamageFn>
void checkDamageForcesRebuild(DamageFn Damage) {
  ScopedCacheDir Cache;
  BenchmarkSpec Spec = tinySpec();
  PreparedBenchmark Truth = prepareUncached(Spec);

  ASSERT_NE(prepareShared(Spec, CostModel()), nullptr);
  std::string Path =
      prepCacheEntryPath(prepCacheKeyHash(prepCacheKeyString(Spec, CostModel())));
  ASSERT_TRUE(std::filesystem::exists(Path)) << Path;

  Damage(Path);
  prepCacheClearMemory();
  prepCacheResetCounters();

  std::shared_ptr<const PreparedBenchmark> Rebuilt =
      prepareShared(Spec, CostModel());
  ASSERT_NE(Rebuilt, nullptr);
  expectEqualPrepared(*Rebuilt, Truth);
  PrepCacheCounters C = prepCacheCounters();
  EXPECT_EQ(C.DiskHits, 0u);
  EXPECT_EQ(C.Corrupt, 1u);
  EXPECT_EQ(C.Misses, 1u);

  // The rebuild rewrote the entry; a further cold read works again.
  prepCacheClearMemory();
  std::shared_ptr<const PreparedBenchmark> FromDisk =
      prepareShared(Spec, CostModel());
  ASSERT_NE(FromDisk, nullptr);
  expectEqualPrepared(*FromDisk, Truth);
  EXPECT_EQ(prepCacheCounters().DiskHits, 1u);
}

TEST(PrepCache, CorruptedEntryForcesRebuild) {
  checkDamageForcesRebuild([](const std::string &Path) {
    // Flip one payload byte; the frame checksum catches it.
    FILE *F = fopen(Path.c_str(), "r+b");
    ASSERT_NE(F, nullptr);
    fseek(F, 0, SEEK_END);
    long Size = ftell(F);
    ASSERT_GT(Size, 64);
    fseek(F, Size / 2, SEEK_SET);
    int Ch = fgetc(F);
    fseek(F, Size / 2, SEEK_SET);
    fputc(Ch ^ 0x5a, F);
    fclose(F);
  });
}

TEST(PrepCache, TruncatedEntryForcesRebuild) {
  checkDamageForcesRebuild([](const std::string &Path) {
    std::error_code Ec;
    uintmax_t Size = std::filesystem::file_size(Path, Ec);
    ASSERT_FALSE(Ec);
    std::filesystem::resize_file(Path, Size / 3, Ec);
    ASSERT_FALSE(Ec);
  });
}

TEST(PrepCache, EmptyEntryForcesRebuild) {
  checkDamageForcesRebuild([](const std::string &Path) {
    FILE *F = fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    fclose(F);
  });
}

} // namespace
