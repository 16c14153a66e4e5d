//===- obs/Obs.h - Process-wide metrics registry ---------------*- C++ -*-===//
///
/// \file
/// The telemetry substrate every subsystem reports into: a process-wide
/// registry of named counters, gauges, and log2-bucket histograms.
///
/// Design constraints (DESIGN.md §7):
///
///  - The write fast path is lock-free: each metric's storage is a
///    small array of cache-line-padded atomic shards, and a writer
///    picks a shard from a per-thread index, so concurrent writers on
///    different threads touch different cache lines and never contend
///    on a mutex. Snapshots aggregate the shards with relaxed loads.
///  - Registration (first use of a name) takes a mutex; call sites
///    cache the returned handle reference, which stays valid for the
///    process lifetime (metrics are never destroyed or re-addressed).
///  - Names follow `subsystem.noun.verb` dotted lowercase, e.g.
///    `cache.prep.hit.mem`, `interp.table.probes`, `pass.inline.runs`.
///  - Telemetry never touches stdout: its only sinks are the PPP_METRICS
///    JSON report, the PPP_TRACE Chrome trace (obs/Trace.h), and views
///    like PPP_PASS_STATS that print to stderr. The experiment binaries'
///    stdout byte-identity contract is independent of any PPP_* setting.
///
/// A run report is emitted automatically at process exit when
/// PPP_METRICS=<path> is set: a schema-versioned JSON snapshot
/// ("ppp-metrics-v1") with stable, sorted key names, the single code
/// path behind every BENCH_*.json trajectory file.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_OBS_OBS_H
#define PPP_OBS_OBS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ppp {
namespace obs {

/// Number of cache-line-padded shards per metric. Power of two; enough
/// that the handful of pool workers rarely collide on a line.
inline constexpr unsigned MetricShards = 16;

/// Index into a metric's shard array for the calling thread (stable for
/// the thread's lifetime; threads are distributed round-robin).
unsigned threadShardIndex();

namespace detail {
struct alignas(64) ShardCell {
  std::atomic<uint64_t> V{0};
};
} // namespace detail

/// A monotonically increasing 64-bit counter.
class Counter {
public:
  void inc(uint64_t N = 1) {
    Shards[threadShardIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }

  uint64_t value() const {
    uint64_t Sum = 0;
    for (const detail::ShardCell &S : Shards)
      Sum += S.V.load(std::memory_order_relaxed);
    return Sum;
  }

private:
  friend class Registry;
  Counter() = default;
  detail::ShardCell Shards[MetricShards];
};

/// A double gauge: set() is last-value-wins, raise() keeps the maximum
/// across writers (both are rare; no sharding).
class Gauge {
public:
  void set(double V) { Value.store(V, std::memory_order_relaxed); }
  void raise(double V) {
    double Cur = Value.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Value.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  double value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class Registry;
  Gauge() = default;
  std::atomic<double> Value{0};
};

/// Number of log2 buckets: bucket B counts values V with bit_width(V)
/// == B, i.e. bucket 0 holds V == 0, bucket B holds 2^(B-1) <= V < 2^B.
inline constexpr unsigned HistogramBuckets = 65;

/// A histogram over uint64 values with fixed log2 buckets plus count,
/// sum, min, and max. Buckets and count/sum are sharded like counters;
/// min/max use CAS (rare retries only under contention).
class Histogram {
public:
  void record(uint64_t V);

  struct Data {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0; ///< 0 when Count == 0.
    uint64_t Max = 0;
    std::vector<uint64_t> Buckets; ///< Trimmed after the last nonzero.
  };
  Data data() const;

private:
  friend class Registry;
  Histogram();
  detail::ShardCell CountShards[MetricShards];
  detail::ShardCell SumShards[MetricShards];
  std::atomic<uint64_t> Min;
  std::atomic<uint64_t> Max;
  std::vector<detail::ShardCell> Buckets; ///< HistogramBuckets cells.
};

enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// One metric's state at snapshot time.
struct SnapshotEntry {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  uint64_t RegOrder = 0;    ///< First-registration order (0-based).
  uint64_t Count = 0;       ///< Counter value / histogram count.
  double Value = 0;         ///< Gauge value.
  Histogram::Data Histo;    ///< Histogram only.
};

/// A deterministic snapshot: entries sorted by name. Aggregation order
/// over shards is fixed, so two snapshots with no intervening writes
/// are identical.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> Entries;

  const SnapshotEntry *find(const std::string &Name) const;

  /// Counter value by name (0 if absent or not a counter).
  uint64_t counter(const std::string &Name) const;

  /// Gauge value by name (0 if absent or not a gauge).
  double gauge(const std::string &Name) const;
};

/// The process-wide metric registry. Handles returned by
/// counter()/gauge()/histogram() are stable for the process lifetime.
class Registry {
public:
  static Registry &instance();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered metric (names and handles survive). Test
  /// hook; production code treats counters as monotonic.
  void resetForTesting();

private:
  Registry();
  struct Impl;
  Impl *I; ///< Leaked: metrics must outlive atexit handlers and TLS dtors.
};

/// Shorthands for the singleton.
inline Counter &counter(const std::string &Name) {
  return Registry::instance().counter(Name);
}
inline Gauge &gauge(const std::string &Name) {
  return Registry::instance().gauge(Name);
}
inline Histogram &histogram(const std::string &Name) {
  return Registry::instance().histogram(Name);
}
inline MetricsSnapshot snapshot() { return Registry::instance().snapshot(); }

//===----------------------------------------------------------------------===//
// Run report (PPP_METRICS)
//===----------------------------------------------------------------------===//

/// The PPP_METRICS destination path ("" when unset). Cached at first
/// call; overridable for tests via setMetricsPathForTesting().
std::string metricsPath();

/// True when a run report will be written at exit.
bool metricsEnabled();

/// Test hook: override (or, with "", clear) the report destination.
void setMetricsPathForTesting(const std::string &Path);

/// Serializes \p Snap as the schema-versioned run report
/// ("ppp-metrics-v1"): counters, gauges, and histograms in sorted key
/// order. \p KeyPrefix, when nonempty, keeps only metrics whose name
/// starts with it (the throughput trajectory file uses this).
std::string formatMetricsJson(const MetricsSnapshot &Snap,
                              const std::string &KeyPrefix = "");

/// Writes formatMetricsJson(snapshot(), KeyPrefix) to \p Path.
/// Returns false (and fills \p Error if given) on I/O failure.
bool writeMetricsJson(const std::string &Path,
                      const std::string &KeyPrefix = "",
                      std::string *Error = nullptr);

//===----------------------------------------------------------------------===//
// Interpreter profiling gate
//===----------------------------------------------------------------------===//

/// True when interpreter runs should report the interp.* metrics they
/// derive (per-opcode counts, PathTable probe stats): PPP_INTERP_STATS=1,
/// or implicitly whenever a PPP_METRICS run report is requested so the
/// report covers the interp subsystem. Enabling this never changes any
/// experiment output, only what flows into the registry.
bool interpStatsEnabled();

/// Test hook: 1 = force on, 0 = force off, -1 = environment-driven.
void setInterpStatsForTesting(int Force);

} // namespace obs
} // namespace ppp

#endif // PPP_OBS_OBS_H
