//===- bench/PrepCache.cpp - Content-addressed preparation cache -------------===//

#include "PrepCache.h"

#include "obs/Obs.h"
#include "obs/Trace.h"
#include "profile/BinaryIO.h"
#include "support/BinStream.h"
#include "support/Format.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <unistd.h>
#include <unordered_map>

using namespace ppp;
using namespace ppp::bench;

// The key string enumerates every field below by hand. These asserts
// fire when a field is added, as a reminder to extend the key (and bump
// PrepPipelineVersion).
static_assert(sizeof(CostModel) == 15 * sizeof(uint32_t),
              "CostModel changed; update prepCacheKeyString and "
              "serializeCostModel, and bump PrepPipelineVersion");

namespace {

constexpr uint32_t PrepMagic = 0x43505062; // 'bPPC'

struct CacheState {
  std::mutex Mu;
  std::unordered_map<uint64_t,
                     std::pair<std::string,
                               std::shared_ptr<const PreparedBenchmark>>>
      Memory;
  /// Counters live in the obs registry (cache.prep.*); the Baseline is
  /// what prepCacheResetCounters() subtracts so the PrepCacheCounters
  /// view starts from zero while the registry stays monotonic.
  PrepCacheCounters Baseline;
  std::string DirOverride;
  bool HasOverride = false;
  bool EnabledOverride = true;
};

/// The registry counters behind PrepCacheCounters, resolved once.
struct CacheMetrics {
  obs::Counter &MemHits = obs::counter("cache.prep.hit.mem");
  obs::Counter &DiskHits = obs::counter("cache.prep.hit.disk");
  obs::Counter &Misses = obs::counter("cache.prep.miss");
  obs::Counter &Corrupt = obs::counter("cache.prep.corrupt");

  static CacheMetrics &get() {
    static CacheMetrics M;
    return M;
  }
};

CacheState &state() {
  static CacheState S;
  return S;
}

bool readFile(const std::string &Path, std::string &Out) {
  FILE *F = fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  Out.clear();
  char Buf[1 << 16];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  bool Ok = !ferror(F);
  fclose(F);
  return Ok;
}

/// Write-temp + rename, so readers never observe a partial entry and
/// concurrent writers of the same key race benignly (last rename wins,
/// both files are identical).
bool writeFileAtomic(const std::string &Path, const std::string &Data) {
  static std::atomic<uint64_t> Seq{0};
  std::error_code Ec;
  std::filesystem::create_directories(
      std::filesystem::path(Path).parent_path(), Ec);
  std::string Tmp = formatString(
      "%s.tmp.%llu.%llu", Path.c_str(),
      (unsigned long long)::getpid(),
      (unsigned long long)Seq.fetch_add(1));
  FILE *F = fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = fwrite(Data.data(), 1, Data.size(), F) == Data.size();
  Ok &= fclose(F) == 0;
  if (Ok) {
    std::filesystem::rename(Tmp, Path, Ec);
    Ok = !Ec;
  }
  if (!Ok)
    std::filesystem::remove(Tmp, Ec);
  return Ok;
}

void serializeCostModel(BinWriter &W, const CostModel &C) {
  W.u32(C.Simple);
  W.u32(C.Mul);
  W.u32(C.Div);
  W.u32(C.Mem);
  W.u32(C.CallOverhead);
  W.u32(C.RetOverhead);
  W.u32(C.Branch);
  W.u32(C.Multiway);
  W.u32(C.ProfReg);
  W.u32(C.ProfCountArray);
  W.u32(C.ProfCountHash);
  W.u32(C.PoisonCheck);
  W.u32(C.TraceByte);
  W.u32(C.TraceStampByte);
  W.u32(C.ProfChainStep);
}

void deserializeCostModel(BinReader &R, CostModel &C) {
  C.Simple = R.u32();
  C.Mul = R.u32();
  C.Div = R.u32();
  C.Mem = R.u32();
  C.CallOverhead = R.u32();
  C.RetOverhead = R.u32();
  C.Branch = R.u32();
  C.Multiway = R.u32();
  C.ProfReg = R.u32();
  C.ProfCountArray = R.u32();
  C.ProfCountHash = R.u32();
  C.PoisonCheck = R.u32();
  C.TraceByte = R.u32();
  C.TraceStampByte = R.u32();
  C.ProfChainStep = R.u32();
}

} // namespace

std::string ppp::bench::prepCacheEntryPath(uint64_t KeyHash) {
  return formatString("%s/%016llx.pppc", prepCacheDir().c_str(),
                      (unsigned long long)KeyHash);
}

std::string ppp::bench::prepCacheKeyString(const BenchmarkSpec &Spec,
                                           const CostModel &Costs,
                                           uint32_t PipelineVersion,
                                           const std::string &PipelineSpec) {
  const WorkloadParams &P = Spec.Params;
  std::string K;
  K += formatString("ppp-prep pipeline %u format %u\n", PipelineVersion,
                    BinaryFormatVersion);
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

uint64_t ppp::bench::prepCacheKeyHash(const std::string &KeyString) {
  return fnv1a(KeyString.data(), KeyString.size());
}

bool ppp::bench::prepCacheEnabled() {
  CacheState &S = state();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    if (S.HasOverride)
      return S.EnabledOverride;
  }
  const char *E = std::getenv("PPP_CACHE");
  return !(E && std::string(E) == "off");
}

std::string ppp::bench::prepCacheDir() {
  CacheState &S = state();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    if (S.HasOverride && !S.DirOverride.empty())
      return S.DirOverride;
  }
  if (const char *E = std::getenv("PPP_CACHE_DIR"); E && *E)
    return E;
  const char *Tmp = std::getenv("TMPDIR");
  return std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/ppp-prep-cache";
}

std::string ppp::bench::serializePrepared(const PreparedBenchmark &B,
                                          const std::string &KeyString) {
  std::string Payload;
  BinWriter W(Payload);
  W.str(KeyString);
  W.str(B.Name);
  W.u8(B.IsFp ? 1 : 0);
  serializeCostModel(W, B.Costs);
  W.str(writeModuleBinary(B.Original));
  W.str(writeModuleBinary(B.Expanded));
  W.u32(B.Inline.SitesInlined);
  W.u32(B.Inline.SitesConsidered);
  W.i64(B.Inline.DynCallsInlined);
  W.i64(B.Inline.DynCallsTotal);
  W.u32(B.Unroll.LoopsUnrolled);
  W.u32(B.Unroll.LoopsConsidered);
  W.f64(B.Unroll.WeightedFactor);
  W.i64(B.Unroll.WeightTotal);
  W.str(writeEdgeProfileBinary(B.Original, B.EPOrig));
  W.str(writePathProfileBinary(B.Original, B.OracleOrig));
  W.u64(B.CostOrig);
  W.u64(B.DynInstrsOrig);
  W.str(writeEdgeProfileBinary(B.Expanded, B.EP));
  W.str(writePathProfileBinary(B.Expanded, B.Oracle));
  W.u64(B.CostBase);
  W.u64(B.DynInstrs);
  return frameMessage(PrepMagic, Payload);
}

bool ppp::bench::deserializePrepared(const std::string &Data,
                                     const std::string &KeyString,
                                     PreparedBenchmark &Out,
                                     std::string &Error) {
  // The frame checks magic, format version, size and checksum; the key
  // echo carries PrepPipelineVersion, so a stale entry reads as a miss.
  BinReader R(Data.data(), 0);
  if (!unframe(PrepMagic, "prep entry", Data, R, Error))
    return false;
  if (R.str() != KeyString) {
    Error = "prep entry: key mismatch (hash collision or stale entry)";
    return false;
  }
  PreparedBenchmark B;
  B.Name = R.str();
  B.IsFp = R.u8() != 0;
  deserializeCostModel(R, B.Costs);
  std::string OrigBlob = R.str();
  std::string ExpBlob = R.str();
  B.Inline.SitesInlined = R.u32();
  B.Inline.SitesConsidered = R.u32();
  B.Inline.DynCallsInlined = R.i64();
  B.Inline.DynCallsTotal = R.i64();
  B.Unroll.LoopsUnrolled = R.u32();
  B.Unroll.LoopsConsidered = R.u32();
  B.Unroll.WeightedFactor = R.f64();
  B.Unroll.WeightTotal = R.i64();
  std::string EPOrigBlob = R.str();
  std::string OracleOrigBlob = R.str();
  B.CostOrig = R.u64();
  B.DynInstrsOrig = R.u64();
  std::string EPBlob = R.str();
  std::string OracleBlob = R.str();
  B.CostBase = R.u64();
  B.DynInstrs = R.u64();
  if (!R.ok() || R.remaining() != 0) {
    Error = "prep entry: payload size mismatch";
    return false;
  }
  if (!readModuleBinary(OrigBlob, B.Original, Error) ||
      !readModuleBinary(ExpBlob, B.Expanded, Error))
    return false;
  if (!readEdgeProfileBinary(B.Original, EPOrigBlob, B.EPOrig, Error) ||
      !readPathProfileBinary(B.Original, OracleOrigBlob, B.OracleOrig,
                             Error))
    return false;
  if (!readEdgeProfileBinary(B.Expanded, EPBlob, B.EP, Error) ||
      !readPathProfileBinary(B.Expanded, OracleBlob, B.Oracle, Error))
    return false;
  Out = std::move(B);
  return true;
}

std::shared_ptr<const PreparedBenchmark>
ppp::bench::prepareShared(const BenchmarkSpec &Spec, const CostModel &Costs) {
  if (!prepCacheEnabled())
    return nullptr;
  obs::ScopedSpan Span("prepare:", Spec.Name, "cache");
  CacheState &S = state();
  CacheMetrics &M = CacheMetrics::get();
  std::string Key = prepCacheKeyString(Spec, Costs);
  uint64_t Hash = prepCacheKeyHash(Key);

  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Memory.find(Hash);
    if (It != S.Memory.end() && It->second.first == Key) {
      M.MemHits.inc();
      return It->second.second;
    }
  }

  std::string Path = prepCacheEntryPath(Hash);
  std::string Data;
  if (readFile(Path, Data)) {
    auto B = std::make_shared<PreparedBenchmark>();
    std::string Error;
    if (deserializePrepared(Data, Key, *B, Error)) {
      std::lock_guard<std::mutex> L(S.Mu);
      M.DiskHits.inc();
      S.Memory[Hash] = {Key, B};
      return B;
    }
    // Corrupt, truncated, stale-version, or colliding entry: rebuild.
    M.Corrupt.inc();
  }

  auto B = std::make_shared<PreparedBenchmark>(prepareUncached(Spec, Costs));
  writeFileAtomic(Path, serializePrepared(*B, Key));
  std::lock_guard<std::mutex> L(S.Mu);
  M.Misses.inc();
  S.Memory[Hash] = {Key, B};
  return B;
}

PrepCacheCounters ppp::bench::prepCacheCounters() {
  CacheMetrics &M = CacheMetrics::get();
  CacheState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  PrepCacheCounters Out;
  Out.MemHits = M.MemHits.value() - S.Baseline.MemHits;
  Out.DiskHits = M.DiskHits.value() - S.Baseline.DiskHits;
  Out.Misses = M.Misses.value() - S.Baseline.Misses;
  Out.Corrupt = M.Corrupt.value() - S.Baseline.Corrupt;
  return Out;
}

void ppp::bench::prepCacheResetCounters() {
  CacheMetrics &M = CacheMetrics::get();
  CacheState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.Baseline.MemHits = M.MemHits.value();
  S.Baseline.DiskHits = M.DiskHits.value();
  S.Baseline.Misses = M.Misses.value();
  S.Baseline.Corrupt = M.Corrupt.value();
}

void ppp::bench::prepCacheOverride(const std::string &Dir, bool Enabled) {
  CacheState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.DirOverride = Dir;
  S.HasOverride = !Dir.empty() || !Enabled;
  S.EnabledOverride = Enabled;
}

void ppp::bench::prepCacheClearMemory() {
  CacheState &S = state();
  std::lock_guard<std::mutex> L(S.Mu);
  S.Memory.clear();
}
