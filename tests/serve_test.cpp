//===- tests/serve_test.cpp - Profile-collection server tests -----------------===//
///
/// The serve subsystem's correctness battery: the merge helper's
/// canonical/commutative algebra, shard selection pinned identical to
/// `%`, the sharded aggregator pinned byte-identical to the sequential
/// oracle (single-threaded, concurrent, and through the overflow path),
/// decay and query semantics (the in-place query pinned to a fully
/// sorted snapshot, the flat overflow table to a map model), and the
/// ingest session over an in-process pipe at hostile chunkings.
///
//===----------------------------------------------------------------------===//

#include "profile/Merge.h"
#include "serve/OverflowTable.h"
#include "serve/Server.h"
#include "serve/ShardHash.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace ppp;
using namespace ppp::serve;

namespace {

//===----------------------------------------------------------------------===//
// Merge helper
//===----------------------------------------------------------------------===//

FunctionCounts funcCounts(uint32_t Func,
                          std::vector<std::pair<uint64_t, uint64_t>> Paths,
                          std::vector<std::pair<uint32_t, uint64_t>> Edges =
                              {},
                          uint64_t Lost = 0, uint64_t Cold = 0,
                          uint64_t Invalid = 0) {
  FunctionCounts F;
  F.Func = Func;
  F.PathCounts = std::move(Paths);
  F.EdgeCounts = std::move(Edges);
  F.Lost = Lost;
  F.Cold = Cold;
  F.Invalid = Invalid;
  return F;
}

TEST(MergeCounts, CanonicalizeSortsCoalescesAndDropsZeros) {
  CountsMessage M;
  M.Benchmark = "b";
  M.Funcs.push_back(funcCounts(7, {{5, 1}, {2, 3}, {5, 2}, {9, 0}}));
  M.Funcs.push_back(funcCounts(3, {{1, 4}}, {{0, 2}, {0, 1}}));
  M.Funcs.push_back(funcCounts(7, {{2, 1}}, {}, /*Lost=*/5));
  M.Funcs.push_back(funcCounts(12, {})); // all-zero: dropped
  canonicalizeCounts(M);

  ASSERT_EQ(M.Funcs.size(), 2u);
  EXPECT_EQ(M.Funcs[0].Func, 3u);
  EXPECT_EQ(M.Funcs[0].PathCounts,
            (std::vector<std::pair<uint64_t, uint64_t>>{{1, 4}}));
  EXPECT_EQ(M.Funcs[0].EdgeCounts,
            (std::vector<std::pair<uint32_t, uint64_t>>{{0, 3}}));
  EXPECT_EQ(M.Funcs[1].Func, 7u);
  EXPECT_EQ(M.Funcs[1].PathCounts,
            (std::vector<std::pair<uint64_t, uint64_t>>{{2, 4}, {5, 3}}));
  EXPECT_EQ(M.Funcs[1].Lost, 5u);
}

std::vector<CountsMessage> mergeFixture() {
  std::vector<CountsMessage> Ms(4);
  for (CountsMessage &M : Ms)
    M.Benchmark = "bench";
  Ms[0].Funcs = {funcCounts(0, {{0, 10}, {3, 1}}, {{1, 7}}),
                 funcCounts(5, {{100, 2}}, {}, 1, 0, 0)};
  Ms[1].Funcs = {funcCounts(0, {{3, 5}}, {{1, 1}, {2, 9}})};
  Ms[2].Funcs = {funcCounts(2, {{7, 7}}), funcCounts(5, {{100, 1}, {101, 4}},
                                                     {}, 2, 3, 0)};
  Ms[3].Funcs = {funcCounts(0, {{0, 1}}), funcCounts(9, {}, {}, 0, 0, 1)};
  return Ms;
}

TEST(MergeCounts, EveryPermutationSerializesByteIdentically) {
  std::vector<CountsMessage> Ms = mergeFixture();
  CountsMessage Oracle;
  for (const CountsMessage &M : Ms)
    mergeCounts(Oracle, M);
  std::string OracleBytes = writeCountsBinary(Oracle);

  std::vector<size_t> Perm(Ms.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  do {
    CountsMessage Agg;
    for (size_t I : Perm)
      mergeCounts(Agg, Ms[I]);
    EXPECT_EQ(writeCountsBinary(Agg), OracleBytes);
  } while (std::next_permutation(Perm.begin(), Perm.end()));
}

TEST(MergeCounts, PropagatesLostColdInvalid) {
  std::vector<CountsMessage> Ms = mergeFixture();
  CountsMessage Agg;
  for (const CountsMessage &M : Ms)
    mergeCounts(Agg, M);
  const FunctionCounts *F5 = nullptr;
  for (const FunctionCounts &F : Agg.Funcs)
    if (F.Func == 5)
      F5 = &F;
  ASSERT_NE(F5, nullptr);
  EXPECT_EQ(F5->Lost, 3u);
  EXPECT_EQ(F5->Cold, 3u);
  EXPECT_EQ(F5->PathCounts,
            (std::vector<std::pair<uint64_t, uint64_t>>{{100, 3}, {101, 4}}));
}

TEST(MergeCounts, SaturatesInsteadOfWrapping) {
  uint64_t Max = ~uint64_t(0);
  EXPECT_EQ(saturatingAdd(Max, 1), Max);
  EXPECT_EQ(saturatingAdd(Max - 1, 1), Max);
  EXPECT_EQ(saturatingAdd(3, 4), 7u);

  CountsMessage A, B;
  A.Benchmark = B.Benchmark = "b";
  A.Funcs = {funcCounts(0, {{0, Max - 2}}, {}, Max, 0, 0)};
  B.Funcs = {funcCounts(0, {{0, 5}}, {}, 7, 0, 0)};
  CountsMessage AB = A, BA = B;
  mergeCounts(AB, B);
  mergeCounts(BA, A);
  EXPECT_EQ(AB.Funcs[0].PathCounts[0].second, Max);
  EXPECT_EQ(AB.Funcs[0].Lost, Max);
  EXPECT_EQ(writeCountsBinary(AB), writeCountsBinary(BA));
}

TEST(MergeCounts, BinaryRoundTripAndRejections) {
  std::vector<CountsMessage> Ms = mergeFixture();
  CountsMessage Agg;
  for (const CountsMessage &M : Ms)
    mergeCounts(Agg, M);
  std::string Blob = writeCountsBinary(Agg);
  CountsMessage Back;
  std::string Error;
  ASSERT_TRUE(readCountsBinary(Blob, Back, Error)) << Error;
  EXPECT_TRUE(Back == Agg);

  // Non-canonical payloads are refused: decode enforces the ordering
  // writeCountsBinary guarantees, so equal messages have equal bytes.
  CountsMessage Bad;
  Bad.Benchmark = "b";
  Bad.Funcs = {funcCounts(1, {{5, 1}, {2, 1}})}; // unsorted
  EXPECT_FALSE(readCountsBinary(writeCountsBinary(Bad), Back, Error));
  Bad.Funcs = {funcCounts(1, {{2, 0}})}; // zero count
  EXPECT_FALSE(readCountsBinary(writeCountsBinary(Bad), Back, Error));
  Bad.Funcs = {funcCounts(1, {{2, 1}})};
  Bad.Benchmark = ""; // empty namespace
  EXPECT_FALSE(readCountsBinary(writeCountsBinary(Bad), Back, Error));
  EXPECT_FALSE(readCountsBinary(Blob + "x", Back, Error)) << "trailing bytes";
}

//===----------------------------------------------------------------------===//
// Shard selection and key packing
//===----------------------------------------------------------------------===//

TEST(ShardHash, SelectorIdenticalToModulo) {
  // The reciprocal-multiply remainder must be bit-identical to `%` for
  // every supported shard count -- this is what lets the microbench row
  // replace the divide without an accuracy caveat.
  std::vector<uint64_t> Hashes = {0, 1, 2, ~uint64_t(0), uint64_t(1) << 32,
                                  (uint64_t(1) << 32) - 1};
  for (uint64_t I = 0; I < 4096; ++I)
    Hashes.push_back(mixKey(I * 0x9e3779b97f4a7c15ULL + 1));
  for (uint32_t S = 1; S <= 64; ++S) {
    ShardSelector Sel(S);
    for (uint64_t H : Hashes)
      ASSERT_EQ(Sel(H), fold32(H) % S) << "shards=" << S << " hash=" << H;
  }
  ShardSelector Max(256);
  for (uint64_t H : Hashes)
    ASSERT_EQ(Max(H), fold32(H) % 256);
}

TEST(ShardHash, PackedKeyRoundTripsAndRespectsBudget) {
  std::vector<AggKey> Keys;
  for (uint16_t B : {0, 1, 255})
    for (CountKind K : {CountKind::Path, CountKind::Edge, CountKind::Lost,
                        CountKind::Cold, CountKind::Invalid})
      for (uint32_t F : {0u, 7u, (1u << 21) - 1})
        for (uint64_t I : {uint64_t(0), uint64_t(12345),
                           (uint64_t(1) << 32) - 1})
          Keys.push_back({B, K, F, I});
  for (const AggKey &K : Keys) {
    ASSERT_TRUE(fitsPacked(K));
    uint64_t P = packKey(K);
    ASSERT_NE(P, EmptyPackedKey);
    ASSERT_TRUE(unpackKey(P) == K);
  }
  EXPECT_FALSE(fitsPacked({256, CountKind::Path, 0, 0}));
  EXPECT_FALSE(fitsPacked({0, CountKind::Path, 1u << 21, 0}));
  EXPECT_FALSE(fitsPacked({0, CountKind::Path, 0, uint64_t(1) << 32}));
}

//===----------------------------------------------------------------------===//
// Aggregator vs the sequential oracle
//===----------------------------------------------------------------------===//

/// The sequential ground truth for a set of per-benchmark message
/// lists: fold with mergeCounts, flatten, format.
std::string
oracleDump(const std::vector<CountsMessage> &Messages) {
  std::map<std::string, CountsMessage> ByBench;
  for (const CountsMessage &M : Messages)
    mergeCounts(ByBench[M.Benchmark], M);
  std::vector<NamedRow> Rows;
  for (const auto &[Bench, Agg] : ByBench) {
    std::vector<NamedRow> R = rowsFromMessage(Agg);
    Rows.insert(Rows.end(), R.begin(), R.end());
  }
  return formatAggregate(std::move(Rows));
}

std::string aggregatorDump(const Aggregator &Agg) {
  return formatAggregate(Agg.snapshotRows());
}

/// A deterministic message fleet: \p Streams clients, each with its own
/// benchmark namespace and a few hundred keys, some shared-looking
/// (same func/index, different bench) to stress shard collisions.
std::vector<CountsMessage> fleetMessages(unsigned Streams,
                                         unsigned KeysPerStream) {
  std::vector<CountsMessage> Out;
  for (unsigned S = 0; S < Streams; ++S) {
    CountsMessage M;
    M.Benchmark = "bench" + std::to_string(S);
    FunctionCounts F;
    F.Func = 0;
    uint32_t CurFunc = 0;
    for (unsigned K = 0; K < KeysPerStream; ++K) {
      uint32_t Func = K / 16;
      if (Func != CurFunc) {
        M.Funcs.push_back(F);
        F = FunctionCounts();
        F.Func = Func;
        CurFunc = Func;
      }
      if (K % 3 == 0)
        F.EdgeCounts.emplace_back(K, 1 + (S * 31 + K) % 97);
      else
        F.PathCounts.emplace_back(K, 1 + (S * 17 + K) % 89);
    }
    F.Lost = S;
    F.Cold = 1;
    M.Funcs.push_back(F);
    canonicalizeCounts(M);
    Out.push_back(std::move(M));
  }
  return Out;
}

TEST(Aggregator, SingleThreadMatchesOracle) {
  std::vector<CountsMessage> Ms = fleetMessages(3, 200);
  for (uint32_t Shards : {1u, 2u, 8u}) {
    AggregatorConfig C;
    C.Shards = Shards;
    Aggregator Agg(C);
    for (const CountsMessage &M : Ms)
      Agg.ingest(Agg.internBenchmark(M.Benchmark), M);
    EXPECT_EQ(aggregatorDump(Agg), oracleDump(Ms)) << "shards=" << Shards;
  }
}

TEST(Aggregator, ConcurrentIngestMatchesOracle) {
  // Each thread repeatedly merges its own stream; once quiesced the
  // aggregate must equal the sequential fold of the same multiset.
  constexpr unsigned Threads = 4, Reps = 25;
  std::vector<CountsMessage> Ms = fleetMessages(Threads, 300);
  AggregatorConfig C;
  C.Shards = 4;
  Aggregator Agg(C);
  std::vector<uint16_t> Ids;
  for (const CountsMessage &M : Ms)
    Ids.push_back(Agg.internBenchmark(M.Benchmark));

  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < Reps; ++R)
        Agg.ingest(Ids[T], Ms[T]);
    });
  for (std::thread &T : Pool)
    T.join();

  std::vector<CountsMessage> Expanded;
  uint64_t ExpectEntries = 0;
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned R = 0; R < Reps; ++R) {
      Expanded.push_back(Ms[T]);
      ExpectEntries += rowsFromMessage(Ms[T]).size();
    }
  EXPECT_EQ(aggregatorDump(Agg), oracleDump(Expanded));
  EXPECT_EQ(Agg.stats().Merges, ExpectEntries);
}

TEST(Aggregator, OverflowPathIsStillExact) {
  // A deliberately starved fast table (8 cells, 2 probes) pushes almost
  // everything through the locked overflow tables; exactness must not
  // depend on which path a key takes.
  std::vector<CountsMessage> Ms = fleetMessages(4, 250);
  AggregatorConfig C;
  C.Shards = 2;
  C.CellsPerShard = 8;
  C.MaxProbes = 2;
  Aggregator Agg(C);
  std::vector<std::thread> Pool;
  std::vector<uint16_t> Ids;
  for (const CountsMessage &M : Ms)
    Ids.push_back(Agg.internBenchmark(M.Benchmark));
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < 10; ++R)
        Agg.ingest(Ids[T], Ms[T]);
    });
  for (std::thread &T : Pool)
    T.join();

  std::vector<CountsMessage> Expanded;
  for (unsigned T = 0; T < 4; ++T)
    for (unsigned R = 0; R < 10; ++R)
      Expanded.push_back(Ms[T]);
  EXPECT_EQ(aggregatorDump(Agg), oracleDump(Expanded));
  Aggregator::Stats S = Agg.stats();
  EXPECT_GT(S.OverflowMerges, 0u) << "fixture failed to starve the cells";
  EXPECT_GT(S.FastMerges, 0u);
}

TEST(Aggregator, UnpackableKeysTakeTheOverflowMapExactly) {
  CountsMessage M;
  M.Benchmark = "wide";
  // Index beyond 32 bits and func beyond 21 bits cannot pack.
  M.Funcs = {funcCounts(1, {{uint64_t(1) << 40, 5}}),
             funcCounts((1u << 21) + 3, {{1, 7}})};
  canonicalizeCounts(M);
  Aggregator Agg;
  uint16_t Id = Agg.internBenchmark("wide");
  Agg.ingest(Id, M);
  Agg.ingest(Id, M);
  EXPECT_EQ(aggregatorDump(Agg), oracleDump({M, M}));
  EXPECT_EQ(Agg.stats().OverflowKeys, 2u);
}

TEST(Aggregator, DecayHalvesEveryCounterWithFloor) {
  CountsMessage M;
  M.Benchmark = "d";
  M.Funcs = {funcCounts(0, {{0, 9}, {1, 2}, {2, 1}}, {{0, 4}})};
  canonicalizeCounts(M);
  Aggregator Agg;
  Agg.ingest(Agg.internBenchmark("d"), M);

  Agg.decay();
  std::map<uint64_t, uint64_t> Counts;
  for (const NamedRow &R : Agg.snapshotRows())
    if (R.Kind == CountKind::Path)
      Counts[R.Index] = R.Count;
  EXPECT_EQ(Counts[0], 4u) << "9 -> 4 (floor)";
  EXPECT_EQ(Counts[1], 1u);
  EXPECT_EQ(Counts.count(2), 0u) << "1 -> 0 drops out of snapshots";

  // Enough passes age everything to zero; the aggregate empties.
  for (int I = 0; I < 10; ++I)
    Agg.decay();
  EXPECT_TRUE(Agg.snapshotRows().empty());
  EXPECT_EQ(Agg.stats().DecayPasses, 11u);
}

TEST(Aggregator, HottestPathsAreOrderedAndDeterministic) {
  CountsMessage M;
  M.Benchmark = "q";
  M.Funcs = {funcCounts(0, {{0, 50}, {1, 70}, {2, 70}, {3, 10}},
                        {{0, 1000}})}; // edges never rank as paths
  canonicalizeCounts(M);
  Aggregator Agg;
  Agg.ingest(Agg.internBenchmark("q"), M);

  std::vector<NamedRow> Top = Agg.hottestPaths(3);
  ASSERT_EQ(Top.size(), 3u);
  EXPECT_EQ(Top[0].Count, 70u);
  EXPECT_EQ(Top[0].Index, 1u) << "ties break toward the smaller key";
  EXPECT_EQ(Top[1].Count, 70u);
  EXPECT_EQ(Top[1].Index, 2u);
  EXPECT_EQ(Top[2].Count, 50u);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(formatAggregate(Agg.hottestPaths(3)),
              formatAggregate(Top)) << "repeat queries must agree";
}

/// A shard count and fast table small enough that most keys overflow.
AggregatorConfig starvedConfig() {
  AggregatorConfig C;
  C.Shards = 2;
  C.CellsPerShard = 8;
  C.MaxProbes = 2;
  return C;
}

/// hottestPaths' order: count desc, then bench name, func, index asc.
bool hotter(const NamedRow &A, const NamedRow &B) {
  if (A.Count != B.Count)
    return A.Count > B.Count;
  return std::tie(A.Bench, A.Func, A.Index) <
         std::tie(B.Bench, B.Func, B.Index);
}

/// The query by definition: every path row of the snapshot, fully
/// sorted, cut to \p K.
std::vector<NamedRow> referenceHottest(const Aggregator &Agg, unsigned K) {
  std::vector<NamedRow> Rows = Agg.snapshotRows();
  std::erase_if(Rows,
                [](const NamedRow &R) { return R.Kind != CountKind::Path; });
  std::sort(Rows.begin(), Rows.end(), hotter);
  if (Rows.size() > K)
    Rows.resize(K);
  return Rows;
}

/// Rows one per line, in the order given.
std::string orderedRows(const std::vector<NamedRow> &Rows) {
  std::string Out;
  for (const NamedRow &R : Rows)
    Out += R.Bench + " " + std::to_string(static_cast<unsigned>(R.Kind)) +
           " " + std::to_string(R.Func) + " " + std::to_string(R.Index) +
           " " + std::to_string(R.Count) + "\n";
  return Out;
}

TEST(Aggregator, HottestPathsMatchTheFullySortedSnapshot) {
  // Names are interned in reverse name order and every bench carries the
  // same counts, so a tie broken by intern id instead of name reorders
  // the answer. Unpackable keys hold the hottest counts; edges are
  // hotter still and must never rank.
  std::vector<std::string> Names;
  for (int B = 11; B >= 0; --B)
    Names.push_back("bench" + std::string(B < 10 ? "0" : "") +
                    std::to_string(B));
  CountsMessage M;
  for (uint32_t Func = 0; Func < 6; ++Func) {
    FunctionCounts F = funcCounts(Func, {}, {{0, 5000}, {1, 3}});
    for (uint64_t I = 0; I < 40; ++I)
      F.PathCounts.emplace_back(I, 1 + (Func * 7 + I * 13) % 53 * 37);
    M.Funcs.push_back(F);
  }
  M.Funcs.push_back(funcCounts(4, {{(uint64_t(1) << 32) + 1, 1961}}));
  M.Funcs.push_back(
      funcCounts((1u << 21) + 5, {{2, 37}, {uint64_t(1) << 33, 1961}}));
  canonicalizeCounts(M);

  for (const AggregatorConfig &C : {AggregatorConfig(), starvedConfig()}) {
    Aggregator Agg(C);
    for (const std::string &Name : Names) {
      M.Benchmark = Name;
      Agg.ingest(Agg.internBenchmark(Name), M);
    }
    // Ids never interned read as "?": one packable, one past the 8-bit
    // bench budget.
    Agg.ingest(200, M);
    Agg.ingest(300, M);
    ASSERT_GT(Agg.stats().OverflowKeys, 0u);

    for (int Decays = 0; Decays <= 12; ++Decays) {
      unsigned All = static_cast<unsigned>(referenceHottest(Agg, ~0u).size());
      for (unsigned K : {0u, 1u, 16u, All + 5}) {
        std::vector<NamedRow> Got = Agg.hottestPaths(K);
        EXPECT_EQ(Got.size(), std::min(K, All));
        EXPECT_EQ(orderedRows(Got), orderedRows(referenceHottest(Agg, K)))
            << "shards=" << C.Shards << " decays=" << Decays << " k=" << K;
      }
      Agg.decay();
    }
  }
}

TEST(Aggregator, OverflowTablesMatchAMapModelAcrossIngestAndDecay) {
  // Every key is unpackable (index past 32 bits, func past 21 bits, or
  // bench id past 8 bits), so each one lives in an overflow table and
  // OverflowKeys must equal the model's size. 4000 keys over two shards
  // grow each table from 16 slots to 4096.
  Aggregator Agg(starvedConfig());
  std::vector<std::string> Names;
  for (int B = 0; B < 300; ++B) {
    Names.push_back("m" + std::to_string(B));
    ASSERT_EQ(Agg.internBenchmark(Names.back()), B);
  }
  std::mt19937_64 Rng(25);
  struct Key {
    uint16_t Bench;
    CountKind Kind;
    uint32_t Func;
    uint64_t Index;
  };
  std::vector<Key> Pool;
  for (int I = 0; I < 4000; ++I) {
    Key K{static_cast<uint16_t>(Rng() % 256), CountKind::Path,
          static_cast<uint32_t>(Rng() % 64), Rng() % 64};
    switch (Rng() % 3) {
    case 0:
      K.Index += uint64_t(1) << 32;
      break;
    case 1:
      K.Func += 1u << 21;
      K.Kind = static_cast<CountKind>(Rng() % 5);
      break;
    default:
      K.Bench = static_cast<uint16_t>(256 + Rng() % 44);
      K.Kind = static_cast<CountKind>(Rng() % 5);
      break;
    }
    if (K.Kind != CountKind::Path && K.Kind != CountKind::Edge)
      K.Index = 0;
    Pool.push_back(K);
  }

  std::map<std::tuple<uint16_t, CountKind, uint32_t, uint64_t>, uint64_t>
      Model;
  auto Check = [&](const std::string &When) {
    std::vector<NamedRow> Rows;
    for (const auto &[K, Count] : Model)
      Rows.push_back({Names[std::get<0>(K)], std::get<1>(K), std::get<2>(K),
                      std::get<3>(K), Count});
    EXPECT_EQ(aggregatorDump(Agg), formatAggregate(Rows)) << When;
    EXPECT_EQ(Agg.stats().OverflowKeys, Model.size()) << When;
  };
  for (int Step = 1; Step <= 24; ++Step) {
    // Each step draws from a longer prefix of the pool, so the live key
    // set keeps growing while decay keeps erasing.
    size_t Reach = std::min(Pool.size(), size_t(Step) * 200);
    for (int I = 0; I < 600; ++I) {
      const Key &K = Pool[Rng() % Reach];
      uint64_t Count = 1 + Rng() % 1000;
      FunctionCounts F;
      F.Func = K.Func;
      switch (K.Kind) {
      case CountKind::Path:
        F.PathCounts = {{K.Index, Count}};
        break;
      case CountKind::Edge:
        F.EdgeCounts = {{static_cast<uint32_t>(K.Index), Count}};
        break;
      case CountKind::Lost:
        F.Lost = Count;
        break;
      case CountKind::Cold:
        F.Cold = Count;
        break;
      case CountKind::Invalid:
        F.Invalid = Count;
        break;
      }
      CountsMessage Msg;
      Msg.Funcs = {F};
      Agg.ingest(K.Bench, Msg);
      Model[{K.Bench, K.Kind, K.Func, K.Index}] += Count;
    }
    Check("after ingest " + std::to_string(Step));
    // Two decays per step: most keys survive one, many die in two.
    for (int D = 0; D < 2; ++D) {
      Agg.decay();
      for (auto It = Model.begin(); It != Model.end();)
        It = (It->second >>= 1) == 0 ? Model.erase(It) : std::next(It);
      Check("after decay " + std::to_string(Step) + "." + std::to_string(D));
    }
  }
  EXPECT_GT(Model.size(), 1500u) << "the pool never loaded the tables";
}

/// Every live slot must be reachable from its home slot: no empty slot
/// between them (the linear-probing invariant deletion must keep).
bool probeRunsIntact(const OverflowTable &T) {
  const auto &Slots = T.slots();
  size_t Mask = Slots.size() - 1;
  for (size_t P = 0; P < Slots.size(); ++P) {
    if (!OverflowTable::live(Slots[P]))
      continue;
    for (size_t I = T.home(Slots[P].Key); I != P; I = (I + 1) & Mask)
      if (!OverflowTable::live(Slots[I]))
        return false;
  }
  return true;
}

TEST(OverflowTable, DeletionShiftsProbeRunsBackAcrossTheTableEnd) {
  // Four keys whose runs wrap: A and B home at the last slot (15), C and
  // D at slot 0, so they fill 15, 0, 1, 2. Decay zeroes A and C; B and D
  // must each shift back past the end, be halved once, and stay found.
  OverflowTable T;
  auto KeyHomedAt = [](size_t Home, uint64_t &Next) {
    for (;; ++Next) {
      AggKey K{7, CountKind::Path, 3, Next};
      if (hashAggKey(K) >> 60 == Home) // 16 slots: the top 4 bits.
        return K;
    }
  };
  uint64_t Next = 0;
  AggKey A = KeyHomedAt(15, Next), B = KeyHomedAt(15, ++Next);
  AggKey C = KeyHomedAt(0, ++Next), D = KeyHomedAt(0, ++Next);
  T.add(A, 1);
  T.add(B, 4);
  T.add(C, 1);
  T.add(D, 6);
  ASSERT_EQ(T.slots().size(), 16u);
  ASSERT_EQ(T.home(A), 15u);
  EXPECT_EQ(T.slots()[15].Key, A);
  EXPECT_EQ(T.slots()[0].Key, B);
  EXPECT_EQ(T.slots()[1].Key, C);
  EXPECT_EQ(T.slots()[2].Key, D);

  T.decay();
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.slots()[15].Key, B);
  EXPECT_EQ(T.slots()[15].Count, 2u) << "halved once, though it moved";
  EXPECT_EQ(T.slots()[0].Key, D);
  EXPECT_EQ(T.slots()[0].Count, 3u) << "halved once, though it moved";
  EXPECT_FALSE(OverflowTable::live(T.slots()[1]));
  EXPECT_TRUE(probeRunsIntact(T));

  // Re-adding finds the moved keys instead of inserting duplicates.
  T.add(B, 1);
  T.add(D, 1);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.slots()[15].Count, 3u);
  EXPECT_EQ(T.slots()[0].Count, 4u);
}

TEST(OverflowTable, GrowsAtThreeQuartersAndKeepsEveryCount) {
  OverflowTable T;
  std::map<uint64_t, uint64_t> Model;
  for (uint64_t I = 0; I < 5000; ++I) {
    uint64_t Index = (I * 2654435761u) % 1500;
    T.add(AggKey{1, CountKind::Edge, 9, Index}, I + 1);
    Model[Index] += I + 1;
    ASSERT_LE(T.size() * 4, T.slots().size() * 3);
  }
  EXPECT_EQ(T.size(), Model.size());
  EXPECT_EQ(T.slots().size(), 2048u);
  EXPECT_TRUE(probeRunsIntact(T));
  for (const OverflowTable::Slot &S : T.slots())
    if (OverflowTable::live(S)) {
      EXPECT_EQ(S.Count, Model[S.Key.Index]);
    }
  // Decay to empty reallocates nothing.
  for (int I = 0; I < 40 && T.size() > 0; ++I) {
    T.decay();
    EXPECT_TRUE(probeRunsIntact(T));
  }
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.slots().size(), 2048u);
}

TEST(Aggregator, QueriesDuringConcurrentIngestStayOrderedAndExact) {
  // Four ingest threads into a starved store (fleet keys plus
  // unpackable ones) while a fifth loops hottestPaths(16): every answer
  // must be ordered, and the quiesced aggregate must equal the oracle.
  std::vector<CountsMessage> Ms = fleetMessages(4, 250);
  for (CountsMessage &M : Ms) {
    M.Funcs.push_back(funcCounts((1u << 21) + 1, {{3, 60}, {4, 90}}));
    M.Funcs.push_back(funcCounts(2, {{uint64_t(1) << 35, 75}}));
    canonicalizeCounts(M);
  }
  Aggregator Agg(starvedConfig());
  std::vector<uint16_t> Ids;
  for (const CountsMessage &M : Ms)
    Ids.push_back(Agg.internBenchmark(M.Benchmark));

  std::atomic<bool> Done{false};
  unsigned Queries = 0, Disordered = 0;
  std::thread Reader([&] {
    do {
      std::vector<NamedRow> Top = Agg.hottestPaths(16);
      ++Queries;
      if (Top.size() > 16 || !std::is_sorted(Top.begin(), Top.end(), hotter))
        ++Disordered;
    } while (!Done.load());
  });
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < 20; ++R)
        Agg.ingest(Ids[T], Ms[T]);
    });
  for (std::thread &T : Pool)
    T.join();
  Done = true;
  Reader.join();

  std::vector<CountsMessage> Expanded;
  for (unsigned T = 0; T < 4; ++T)
    for (unsigned R = 0; R < 20; ++R)
      Expanded.push_back(Ms[T]);
  EXPECT_EQ(aggregatorDump(Agg), oracleDump(Expanded));
  EXPECT_GT(Queries, 0u);
  EXPECT_EQ(Disordered, 0u);
  EXPECT_EQ(orderedRows(Agg.hottestPaths(16)),
            orderedRows(referenceHottest(Agg, 16)));
}

//===----------------------------------------------------------------------===//
// IngestSession over the in-process pipe
//===----------------------------------------------------------------------===//

std::string sessionStream(const std::vector<CountsMessage> &Ms,
                          const std::string &Client = "test-client") {
  std::string S = helloMessage(Client);
  for (const CountsMessage &M : Ms)
    S += writeCountsBinary(M);
  S += byeMessage(Ms.size());
  return S;
}

TEST(IngestSession, AnyChunkingYieldsTheOracleAggregate) {
  std::vector<CountsMessage> Ms = fleetMessages(2, 120);
  std::string Stream = sessionStream(Ms);
  std::string Oracle = oracleDump(Ms);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(64), Stream.size()}) {
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    for (size_t Pos = 0; Pos < Stream.size(); Pos += Chunk)
      ASSERT_TRUE(S.consume(Stream.data() + Pos,
                            std::min(Chunk, Stream.size() - Pos)))
          << S.error();
    ASSERT_TRUE(S.finish()) << S.error();
    EXPECT_EQ(S.clientName(), "test-client");
    EXPECT_EQ(S.countsFrames(), Ms.size());
    EXPECT_EQ(aggregatorDump(Agg), Oracle) << "chunk=" << Chunk;
  }
}

TEST(IngestSession, ProtocolViolationsAreStickyAndMergeNothingAfter) {
  std::vector<CountsMessage> Ms = fleetMessages(1, 60);

  {
    // Counts before HELLO.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Stream = writeCountsBinary(Ms[0]);
    EXPECT_FALSE(S.consume(Stream.data(), Stream.size()));
    EXPECT_TRUE(S.failed());
    EXPECT_TRUE(Agg.snapshotRows().empty()) << "nothing may merge";
    EXPECT_FALSE(S.consume("x", 1)) << "errors are sticky";
  }
  {
    // Duplicate HELLO.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Stream = helloMessage("a") + helloMessage("b");
    EXPECT_FALSE(S.consume(Stream.data(), Stream.size()));
    EXPECT_TRUE(S.failed());
  }
  {
    // BYE declaring the wrong frame count.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Stream =
        helloMessage("c") + writeCountsBinary(Ms[0]) + byeMessage(2);
    EXPECT_FALSE(S.consume(Stream.data(), Stream.size()));
    EXPECT_TRUE(S.failed());
  }
  {
    // A corrupted counts frame stops the stream at the checksum; the
    // intact frame before it merged, the one after it must not.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Good = writeCountsBinary(Ms[0]);
    std::string Bad = Good;
    Bad[Bad.size() - 1] ^= 0x01;
    std::string Stream = helloMessage("d") + Good + Bad + Good;
    EXPECT_FALSE(S.consume(Stream.data(), Stream.size()));
    EXPECT_TRUE(S.failed());
    EXPECT_EQ(S.countsFrames(), 1u);
    EXPECT_EQ(aggregatorDump(Agg), oracleDump({Ms[0]}));
  }
  {
    // EOF without BYE is a truncated session.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Stream = helloMessage("e") + writeCountsBinary(Ms[0]);
    EXPECT_TRUE(S.consume(Stream.data(), Stream.size()));
    EXPECT_FALSE(S.finish());
    EXPECT_TRUE(S.failed());
  }
  {
    // EOF mid-frame is a truncated session even after BYE's magic
    // appeared.
    Aggregator Agg;
    IngestSession S(Agg, "pipe");
    std::string Stream = sessionStream({Ms[0]});
    EXPECT_TRUE(S.consume(Stream.data(), Stream.size() - 3));
    EXPECT_FALSE(S.finish());
  }
}

} // namespace
