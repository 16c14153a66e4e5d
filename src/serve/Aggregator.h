//===- serve/Aggregator.h - Sharded profile-count aggregation --*- C++ -*-===//
///
/// \file
/// The accumulation core of the profile-collection server: counts from
/// many concurrent client streams merge into sharded, cache-line-padded
/// counter tables while decay passes age them and hottest-path queries
/// snapshot them, all without a global lock.
///
/// Layout. Each shard owns a fixed-capacity open-addressed table of
/// (packed key, count) cells plus an overflow table. A key (benchmark,
/// kind, function, index) is mixed to a 64-bit hash, mapped to its
/// shard by an exact reciprocal remainder (serve/ShardHash.h), and
/// probed into the shard's cells by double hashing. The fast path is
/// lock-free: cells are claimed with one CAS on first sight and counted
/// with relaxed atomic read-modify-writes after that, so concurrent
/// ingest threads only serialize on genuinely colliding cache lines.
/// Keys that exhaust the probe budget, or are too large to pack into 64
/// bits, fall through to the shard's overflow table under that shard's
/// mutex -- still no cross-shard serialization. The overflow table is
/// flat: open addressing with linear probing over 24-byte (key, count)
/// slots, grown at 3/4 load. Decay halves it in place and erases keys
/// that reach zero by shifting their probe runs back, so it never
/// reallocates and holds only live keys.
///
/// Queries. hottestPaths(k) reads the aggregate in place: one pass over
/// every cell and overflow slot, skipping non-path keys by their packed
/// kind bits, keeps the k hottest in a bounded heap. It costs one read
/// per stored key plus O(log k) per key that beats the heap's coldest,
/// allocates O(k + benchmarks), and resolves names only for the winners.
///
/// Scaling. Per-shard capacity is fixed, so the shard count scales both
/// the lock-free fast capacity and (on multicore hosts) merge
/// parallelism: an aggregate that saturates one shard's cells degrades
/// to probe-limit misses and locked overflow merges, while the same
/// load spread over eight shards stays on the CAS-free fast path. The
/// served ingest benchmark (tools/ppp_served bench) measures exactly
/// this merges/sec curve.
///
/// Exactness. Saturating addition is commutative and associative, so
/// once ingest threads quiesce the aggregate equals a sequential
/// mergeCounts fold of the same messages in any order -- the smoke test
/// pins the two byte-identical. Queries taken mid-ingest are
/// best-effort snapshots (each counter internally consistent, no
/// torn values, but no cross-counter atomicity), exactly like the obs
/// registry's snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_SERVE_AGGREGATOR_H
#define PPP_SERVE_AGGREGATOR_H

#include "profile/Merge.h"
#include "serve/ShardHash.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppp {
namespace serve {

struct AggregatorConfig {
  /// Number of shards (1..256). The served benchmark sweeps this.
  uint32_t Shards = 8;
  /// Fast cells per shard; rounded up to a power of two.
  uint32_t CellsPerShard = 4096;
  /// Probes before a key falls through to the overflow table. At the
  /// design load factor (<= ~0.72 with double hashing) a budget of 16
  /// leaves under 1% of packable keys falsely overflowing; a genuinely
  /// saturated table pays the full budget per miss, which is the
  /// intended pressure signal to raise the shard count.
  uint32_t MaxProbes = 16;
};

/// One aggregated counter at snapshot time, with the benchmark name
/// resolved (snapshots sort by name, never by intern order, so two
/// servers that saw clients in different orders dump identically).
struct NamedRow {
  std::string Bench;
  CountKind Kind = CountKind::Path;
  uint32_t Func = 0;
  uint64_t Index = 0;
  uint64_t Count = 0;
};

/// Sorts \p Rows deterministically (bench, kind, func, index) and
/// renders the canonical aggregate dump both the server's --dump and
/// the sequential oracle produce.
std::string formatAggregate(std::vector<NamedRow> Rows);

/// Flattens canonical counts messages into named rows (the sequential
/// oracle's view of an aggregate).
std::vector<NamedRow> rowsFromMessage(const CountsMessage &M);

class Aggregator {
public:
  explicit Aggregator(const AggregatorConfig &Config = AggregatorConfig());
  ~Aggregator();

  Aggregator(const Aggregator &) = delete;
  Aggregator &operator=(const Aggregator &) = delete;

  const AggregatorConfig &config() const { return Cfg; }

  /// Interns \p Name to the small id ingest() keys on. Takes a mutex;
  /// sessions call it once per stream and cache the id.
  uint16_t internBenchmark(const std::string &Name);

  /// Merges every counter of \p M (canonical) into the aggregate.
  /// Thread-safe and lock-free on the fast path; any number of ingest
  /// threads may run concurrently with each other, decay(), and
  /// queries. Returns the number of counter merges applied.
  uint64_t ingest(uint16_t Bench, const CountsMessage &M);

  /// Ages every counter by one half-life: count -> floor(count / 2).
  /// Safe while ingest continues (the halving subtracts atomically, so
  /// a racing merge is never lost).
  void decay();

  /// The k hottest path counters right now: count desc, then bench
  /// name, func and index asc. Safe while ingest continues.
  std::vector<NamedRow> hottestPaths(unsigned K) const;

  /// Every nonzero counter with benchmark names resolved. Exact once
  /// ingest threads have quiesced; best-effort mid-ingest.
  std::vector<NamedRow> snapshotRows() const;

  struct Stats {
    uint64_t Merges = 0;        ///< Counter merges applied.
    uint64_t FastMerges = 0;    ///< ...landed in lock-free cells.
    uint64_t OverflowMerges = 0;///< ...fell through to overflow tables.
    uint64_t Probes = 0;        ///< Fast cells examined.
    uint64_t CellsClaimed = 0;  ///< Distinct fast cells in use.
    uint64_t OverflowKeys = 0;  ///< Distinct overflow keys in use.
    uint64_t DecayPasses = 0;
  };
  Stats stats() const;

private:
  struct Shard;

  /// Per-message statistics accumulator. The ingest hot loop counts
  /// into plain locals and flushes them with one batch of atomic adds
  /// per message, so the per-entry fast path carries no shared
  /// read-modify-writes beyond the counter cell itself.
  struct LocalStats {
    uint64_t Merges = 0;
    uint64_t Fast = 0;
    uint64_t Overflow = 0;
    uint64_t Probes = 0;
    uint64_t Claimed = 0;
  };

  void applyPacked(uint64_t Packed, uint64_t Hash, uint64_t Count, Shard &S,
                   LocalStats &L);
  void applyOverflow(const AggKey &Key, uint64_t Count, Shard &S,
                     LocalStats &L);

  AggregatorConfig Cfg;
  uint32_t CellMask = 0; ///< CellsPerShard (pow2) - 1.
  ShardSelector Select;
  std::vector<std::unique_ptr<Shard>> Shards;

  mutable std::mutex BenchMu;
  std::vector<std::string> BenchNames; ///< id -> name.
  std::map<std::string, uint16_t> BenchIds;

  std::atomic<uint64_t> DecayPasses{0};
};

} // namespace serve
} // namespace ppp

#endif // PPP_SERVE_AGGREGATOR_H
