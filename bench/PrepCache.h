//===- bench/PrepCache.h - Content-addressed preparation cache -*- C++ -*-===//
///
/// \file
/// Persists the result of bench::prepare() -- the steps 1-4 pipeline
/// (generate, calibrate, clean-profile, inline+unroll, re-profile) --
/// so the experiments in suite_all, the tools, and repeated runs of any
/// of them share one prepared artifact per (benchmark, cost model)
/// instead of each rebuilding all of them.
///
/// Two layers:
///
///  - an in-process memory cache (shared_ptr to immutable entries),
///    which is what lets suite_all run every experiment over a single
///    set of PreparedBenchmarks;
///  - an on-disk cache of binary-serialized entries (profile/BinaryIO
///    framing: versioned, checksummed, endian-stable) under
///    PPP_CACHE_DIR, shared between processes.
///
/// Entries are content-addressed: the file name is a 64-bit FNV-1a hash
/// of a canonical key string covering the benchmark name, every
/// workload-generator field, the pipeline flags, the preparation
/// pipeline spec (pass/Pipeline.h), every cost-model weight, the
/// binary format version, and PrepPipelineVersion. Any
/// field change is a different key, so stale entries are simply never
/// found; the full key string is stored in the entry and compared on
/// read, so a (vanishingly unlikely) hash collision reads as a miss,
/// not a wrong hit. Corrupt or truncated entries fail the checksum or
/// validation and are rebuilt transparently. Writes go to a temp file
/// followed by an atomic rename, so concurrent processes can share
/// one cache directory safely.
///
/// PPP_CACHE=off disables both layers (the pre-cache behavior);
/// PPP_CACHE_DIR overrides the default directory
/// (${TMPDIR:-/tmp}/ppp-prep-cache).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_BENCH_PREPCACHE_H
#define PPP_BENCH_PREPCACHE_H

#include "Harness.h"

#include "pass/Pipeline.h"

#include <memory>
#include <string>

namespace ppp {
namespace bench {

/// Bump whenever the semantics of the steps 1-4 pipeline change (the
/// generator, calibrator, inliner, unroller, interpreter costs, or
/// prepare() itself): persisted entries encode the pipeline's *output*,
/// so a semantic change without a bump would serve stale results to the
/// new code. Tests and the binary format version guard the encoding;
/// this constant guards the meaning.
///
/// Version history: 1 = hard-coded prepare() sequence; 2 = spec-driven
/// pass pipeline (the spec itself joined the key); 3 = CostModel grew
/// TraceByte (serialized cost model and key text changed shape);
/// 4 = CostModel grew TraceStampByte (timing-annotated tracing);
/// 5 = CostModel grew ProfChainStep (k-iteration path profiling);
/// 6 = entries carry the original code's dynamic instruction count.
inline constexpr uint32_t PrepPipelineVersion = 6;

/// The canonical cache key text for (\p Spec, \p Costs) prepared under
/// \p PipelineSpec (default: the active preparation pipeline, so
/// PPP_PIPELINE variants address distinct entries). Exposed (with the
/// version and spec as parameters) so tests can pin that every field,
/// the version, and the spec participate in the key.
std::string
prepCacheKeyString(const BenchmarkSpec &Spec, const CostModel &Costs,
                   uint32_t PipelineVersion = PrepPipelineVersion,
                   const std::string &PipelineSpec = activePreparePipelineSpec());

/// 64-bit content address of a key string (the cache file name).
uint64_t prepCacheKeyHash(const std::string &KeyString);

/// Path of the cache entry for \p KeyHash under the active directory
/// (<dir>/<16-hex-digit-hash>.pppc). Exposed for the corruption tests.
std::string prepCacheEntryPath(uint64_t KeyHash);

/// True unless PPP_CACHE=off (or a test override disabled it).
bool prepCacheEnabled();

/// The active cache directory: the test override, else PPP_CACHE_DIR,
/// else ${TMPDIR:-/tmp}/ppp-prep-cache.
std::string prepCacheDir();

/// Cache-aware prepare: memory layer, then disk, then computes via
/// prepareUncached() and stores in both. Returns nullptr when the cache
/// is disabled (callers fall back to prepareUncached()).
std::shared_ptr<const PreparedBenchmark>
prepareShared(const BenchmarkSpec &Spec, const CostModel &Costs);

/// Serializes \p B as one self-contained cache entry (framed, with the
/// key string echoed for collision detection).
std::string serializePrepared(const PreparedBenchmark &B,
                              const std::string &KeyString);

/// Decodes \p Data into \p Out, verifying frame, checksum, key echo,
/// module verification, and profile/module consistency.
bool deserializePrepared(const std::string &Data,
                         const std::string &KeyString, PreparedBenchmark &Out,
                         std::string &Error);

/// Hit/miss accounting, mostly for tests and suite_all's summary. The
/// authoritative counters live in the obs metrics registry
/// (cache.prep.hit.mem / cache.prep.hit.disk / cache.prep.miss /
/// cache.prep.corrupt, emitted with the PPP_METRICS run report); this
/// struct is a view of those counters relative to the last
/// prepCacheResetCounters() call.
struct PrepCacheCounters {
  uint64_t MemHits = 0;
  uint64_t DiskHits = 0;
  uint64_t Misses = 0;   ///< Computed from scratch (includes Corrupt).
  uint64_t Corrupt = 0;  ///< Disk entries rejected by validation.
};
PrepCacheCounters prepCacheCounters();
void prepCacheResetCounters();

/// Test/benchmark hooks: override the directory and enablement
/// (bypassing the environment) and drop the in-memory layer. Pass an
/// empty \p Dir to return to environment-driven behavior.
void prepCacheOverride(const std::string &Dir, bool Enabled);
void prepCacheClearMemory();

} // namespace bench
} // namespace ppp

#endif // PPP_BENCH_PREPCACHE_H
