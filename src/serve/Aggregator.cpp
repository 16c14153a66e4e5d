//===- serve/Aggregator.cpp - Sharded profile-count aggregation ---------------===//

#include "serve/Aggregator.h"

#include "obs/Obs.h"
#include "serve/OverflowTable.h"
#include "support/Format.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string_view>
#include <tuple>

using namespace ppp;
using namespace ppp::serve;

namespace {

/// Saturating add on an atomic counter. One CAS in the common case;
/// retries only under a genuine same-cell race.
void atomicSatAdd(std::atomic<uint64_t> &A, uint64_t N) {
  uint64_t Cur = A.load(std::memory_order_relaxed);
  while (!A.compare_exchange_weak(Cur, saturatingAdd(Cur, N),
                                  std::memory_order_relaxed))
    ;
}

} // namespace

/// One shard: a lock-free fixed-capacity cell table, a mutex-guarded
/// overflow table, and per-shard statistics. alignas keeps neighboring
/// shards' hot state off each other's cache lines.
struct alignas(64) Aggregator::Shard {
  struct Cell {
    std::atomic<uint64_t> Key{EmptyPackedKey};
    std::atomic<uint64_t> Count{0};
  };

  std::vector<Cell> Cells;

  mutable std::mutex OverflowMu;
  OverflowTable Overflow;

  // Statistics (relaxed; aggregated by stats()).
  std::atomic<uint64_t> Merges{0};
  std::atomic<uint64_t> FastMerges{0};
  std::atomic<uint64_t> OverflowMerges{0};
  std::atomic<uint64_t> Probes{0};
  std::atomic<uint64_t> Claimed{0};
};

Aggregator::Aggregator(const AggregatorConfig &Config)
    : Cfg(Config),
      Select(std::clamp<uint32_t>(Config.Shards, 1, 256)) {
  Cfg.Shards = std::clamp<uint32_t>(Cfg.Shards, 1, 256);
  Cfg.CellsPerShard = std::bit_ceil(std::max<uint32_t>(8, Cfg.CellsPerShard));
  Cfg.MaxProbes = std::max<uint32_t>(1, Cfg.MaxProbes);
  CellMask = Cfg.CellsPerShard - 1;
  Shards.reserve(Cfg.Shards);
  for (uint32_t I = 0; I < Cfg.Shards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Cells = std::vector<Shard::Cell>(Cfg.CellsPerShard);
    Shards.push_back(std::move(S));
  }
}

Aggregator::~Aggregator() = default;

uint16_t Aggregator::internBenchmark(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(BenchMu);
  auto It = BenchIds.find(Name);
  if (It != BenchIds.end())
    return It->second;
  uint16_t Id = static_cast<uint16_t>(BenchNames.size());
  BenchNames.push_back(Name);
  BenchIds.emplace(Name, Id);
  return Id;
}

void Aggregator::applyPacked(uint64_t Packed, uint64_t Hash, uint64_t Count,
                             Shard &S, LocalStats &L) {
  // Double hashing over a power-of-two table: odd step visits every
  // cell; the probe budget keeps worst-case work bounded.
  uint64_t Slot = Hash & CellMask;
  uint64_t Step = ((Hash >> 32) | 1) & CellMask;
  for (uint32_t P = 0; P < Cfg.MaxProbes; ++P) {
    Shard::Cell &C = S.Cells[Slot];
    ++L.Probes;
    uint64_t K = C.Key.load(std::memory_order_acquire);
    if (K == EmptyPackedKey) {
      if (C.Key.compare_exchange_strong(K, Packed,
                                        std::memory_order_acq_rel))
        ++L.Claimed;
      // On failure K holds the racing claimant's key; fall through.
    }
    if (K == EmptyPackedKey || K == Packed) {
      atomicSatAdd(C.Count, Count);
      ++L.Fast;
      return;
    }
    Slot = (Slot + Step) & CellMask;
  }
  applyOverflow(unpackKey(Packed), Count, S, L);
}

void Aggregator::applyOverflow(const AggKey &Key, uint64_t Count, Shard &S,
                               LocalStats &L) {
  // Probe budget exhausted, or the key does not pack: the shard's
  // locked overflow table absorbs it. Still shard-local, so ingest
  // threads working other shards never wait here.
  std::lock_guard<std::mutex> Lock(S.OverflowMu);
  S.Overflow.add(Key, Count);
  ++L.Overflow;
}

uint64_t Aggregator::ingest(uint16_t Bench, const CountsMessage &M) {
  LocalStats L;
  AggKey K;
  K.Bench = Bench;
  for (const FunctionCounts &F : M.Funcs) {
    K.Func = F.Func;
    auto Apply = [&](CountKind Kind, uint64_t Index, uint64_t Count) {
      if (Count == 0)
        return;
      K.Kind = Kind;
      K.Index = Index;
      ++L.Merges;
      if (fitsPacked(K)) {
        // Pack and mix once; the same hash picks the shard and seeds
        // the probe sequence (the selector folds it, the probe loop
        // masks it -- independent bit uses).
        uint64_t Packed = packKey(K);
        uint64_t H = mixKey(Packed);
        applyPacked(Packed, H, Count, *Shards[Select(H)], L);
      } else {
        applyOverflow(K, Count, *Shards[Select(hashAggKey(K))], L);
      }
    };
    for (const auto &[Index, Count] : F.PathCounts)
      Apply(CountKind::Path, Index, Count);
    for (const auto &[Edge, Count] : F.EdgeCounts)
      Apply(CountKind::Edge, Edge, Count);
    Apply(CountKind::Lost, 0, F.Lost);
    Apply(CountKind::Cold, 0, F.Cold);
    Apply(CountKind::Invalid, 0, F.Invalid);
  }
  // One batched flush per message: stats() sums across shards, so which
  // shard absorbs the batch does not matter.
  Shard &S0 = *Shards[0];
  S0.Merges.fetch_add(L.Merges, std::memory_order_relaxed);
  S0.FastMerges.fetch_add(L.Fast, std::memory_order_relaxed);
  S0.OverflowMerges.fetch_add(L.Overflow, std::memory_order_relaxed);
  S0.Probes.fetch_add(L.Probes, std::memory_order_relaxed);
  S0.Claimed.fetch_add(L.Claimed, std::memory_order_relaxed);
  obs::counter("serve.merge.entries").inc(L.Merges);
  return L.Merges;
}

void Aggregator::decay() {
  for (auto &SP : Shards) {
    Shard &S = *SP;
    for (Shard::Cell &C : S.Cells) {
      uint64_t Cur = C.Count.load(std::memory_order_relaxed);
      if (Cur > 0) {
        // fetch_sub keeps a racing merge intact: we only ever remove
        // half of a value we actually observed.
        C.Count.fetch_sub(Cur - (Cur >> 1), std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> Lock(S.OverflowMu);
    S.Overflow.decay();
  }
  DecayPasses.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.decay.passes").inc();
}

std::vector<NamedRow> Aggregator::snapshotRows() const {
  std::vector<std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(BenchMu);
    Names = BenchNames;
  }
  std::vector<NamedRow> Rows;
  for (const auto &SP : Shards) {
    const Shard &S = *SP;
    for (const Shard::Cell &C : S.Cells) {
      uint64_t K = C.Key.load(std::memory_order_acquire);
      if (K == EmptyPackedKey)
        continue;
      uint64_t Count = C.Count.load(std::memory_order_relaxed);
      if (Count == 0)
        continue;
      AggKey Key = unpackKey(K);
      Rows.push_back({Key.Bench < Names.size() ? Names[Key.Bench]
                                               : std::string("?"),
                      Key.Kind, Key.Func, Key.Index, Count});
    }
    std::lock_guard<std::mutex> Lock(S.OverflowMu);
    for (const OverflowTable::Slot &O : S.Overflow.slots())
      if (OverflowTable::live(O))
        Rows.push_back({O.Key.Bench < Names.size() ? Names[O.Key.Bench]
                                                   : std::string("?"),
                        O.Key.Kind, O.Key.Func, O.Key.Index, O.Count});
  }
  return Rows;
}

std::vector<NamedRow> Aggregator::hottestPaths(unsigned K) const {
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::string> Names;
  {
    std::lock_guard<std::mutex> Lock(BenchMu);
    Names = BenchNames;
  }
  // Rank the names once, so the scan breaks ties in name order by
  // comparing integers. Ids with no name rank as "?", the name
  // snapshotRows gives them.
  std::vector<std::string_view> Sorted(Names.begin(), Names.end());
  Sorted.push_back("?");
  std::sort(Sorted.begin(), Sorted.end());
  auto RankOf = [&](std::string_view Name) {
    return static_cast<uint32_t>(
        std::lower_bound(Sorted.begin(), Sorted.end(), Name) -
        Sorted.begin());
  };
  std::vector<uint32_t> Rank;
  for (const std::string &Name : Names)
    Rank.push_back(RankOf(Name));
  const uint32_t UnknownRank = RankOf("?");

  // One pass over every cell and overflow slot keeps the K hottest
  // candidates in a heap whose front is the coldest of them.
  struct Candidate {
    uint64_t Count;
    uint32_t Rank;
    uint32_t Func;
    uint64_t Index;
    uint16_t Bench;
  };
  auto Hotter = [](const Candidate &A, const Candidate &B) {
    if (A.Count != B.Count)
      return A.Count > B.Count;
    return std::tie(A.Rank, A.Func, A.Index) <
           std::tie(B.Rank, B.Func, B.Index);
  };
  std::vector<Candidate> Heap;
  auto Offer = [&](const AggKey &Key, uint64_t Count) {
    if (Heap.size() == K && (K == 0 || Count < Heap.front().Count))
      return;
    Candidate C{Count,
                Key.Bench < Rank.size() ? Rank[Key.Bench] : UnknownRank,
                Key.Func, Key.Index, Key.Bench};
    if (Heap.size() < K) {
      Heap.push_back(C);
      std::push_heap(Heap.begin(), Heap.end(), Hotter);
    } else if (Hotter(C, Heap.front())) {
      std::pop_heap(Heap.begin(), Heap.end(), Hotter);
      Heap.back() = C;
      std::push_heap(Heap.begin(), Heap.end(), Hotter);
    }
  };
  for (const auto &SP : Shards) {
    const Shard &S = *SP;
    for (const Shard::Cell &C : S.Cells) {
      uint64_t P = C.Key.load(std::memory_order_acquire);
      // Empty cells read as kind 7 and fail this test too.
      if (packedKind(P) != CountKind::Path)
        continue;
      uint64_t Count = C.Count.load(std::memory_order_relaxed);
      if (Count > 0)
        Offer(unpackKey(P), Count);
    }
    std::lock_guard<std::mutex> Lock(S.OverflowMu);
    for (const OverflowTable::Slot &O : S.Overflow.slots())
      if (O.Key.Kind == CountKind::Path)
        Offer(O.Key, O.Count);
  }

  std::sort_heap(Heap.begin(), Heap.end(), Hotter);
  std::vector<NamedRow> Rows;
  Rows.reserve(Heap.size());
  for (const Candidate &C : Heap)
    Rows.push_back({C.Bench < Names.size() ? Names[C.Bench] : std::string("?"),
                    CountKind::Path, C.Func, C.Index, C.Count});
  obs::histogram("serve.query.ns")
      .record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - T0)
              .count()));
  return Rows;
}

Aggregator::Stats Aggregator::stats() const {
  Stats Out;
  for (const auto &SP : Shards) {
    const Shard &S = *SP;
    Out.Merges += S.Merges.load(std::memory_order_relaxed);
    Out.FastMerges += S.FastMerges.load(std::memory_order_relaxed);
    Out.OverflowMerges += S.OverflowMerges.load(std::memory_order_relaxed);
    Out.Probes += S.Probes.load(std::memory_order_relaxed);
    Out.CellsClaimed += S.Claimed.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(S.OverflowMu);
    Out.OverflowKeys += S.Overflow.size();
  }
  Out.DecayPasses = DecayPasses.load(std::memory_order_relaxed);
  return Out;
}

std::string ppp::serve::formatAggregate(std::vector<NamedRow> Rows) {
  std::sort(Rows.begin(), Rows.end(),
            [](const NamedRow &A, const NamedRow &B) {
              return std::tie(A.Bench, A.Kind, A.Func, A.Index) <
                     std::tie(B.Bench, B.Kind, B.Func, B.Index);
            });
  static const char *KindNames[] = {"path", "edge", "lost", "cold",
                                    "invalid"};
  std::string Out = "# ppp-served-aggregate-v1\n";
  uint64_t Total = 0;
  size_t Printed = 0;
  for (const NamedRow &R : Rows) {
    if (R.Count == 0)
      continue;
    Out += formatString(
        "%s %s %u %llu %llu\n", R.Bench.c_str(),
        KindNames[static_cast<unsigned>(R.Kind)], R.Func,
        (unsigned long long)R.Index, (unsigned long long)R.Count);
    Total = saturatingAdd(Total, R.Count);
    ++Printed;
  }
  Out += formatString("# rows %zu total %llu\n", Printed,
                      (unsigned long long)Total);
  return Out;
}

std::vector<NamedRow> ppp::serve::rowsFromMessage(const CountsMessage &M) {
  std::vector<NamedRow> Rows;
  for (const FunctionCounts &F : M.Funcs) {
    for (const auto &[Index, Count] : F.PathCounts)
      Rows.push_back({M.Benchmark, CountKind::Path, F.Func, Index, Count});
    for (const auto &[Edge, Count] : F.EdgeCounts)
      Rows.push_back({M.Benchmark, CountKind::Edge, F.Func, Edge, Count});
    if (F.Lost > 0)
      Rows.push_back({M.Benchmark, CountKind::Lost, F.Func, 0, F.Lost});
    if (F.Cold > 0)
      Rows.push_back({M.Benchmark, CountKind::Cold, F.Func, 0, F.Cold});
    if (F.Invalid > 0)
      Rows.push_back(
          {M.Benchmark, CountKind::Invalid, F.Func, 0, F.Invalid});
  }
  return Rows;
}
