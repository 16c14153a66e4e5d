//===- serve/ShardHash.h - Key packing and shard selection -----*- C++ -*-===//
///
/// \file
/// The hashing layer of the profile-collection server: packs one
/// aggregation key (benchmark, counter kind, function, index) into 64
/// bits when it fits, mixes keys into well-distributed hashes, and maps
/// a hash onto a shard index with a fixed-point reciprocal multiply
/// instead of a hardware divide -- the same strength reduction
/// PathTable::fastRemainder applies to the 701-slot probe, but for a
/// divisor chosen at runtime (the shard count), via Lemire's exact
/// fastmod: for 32-bit operands,
///
///   M = floor(2^64 / D) + 1,  rem(N) = (M * N * D) >> 64
///
/// equals N % D for every N and every D >= 2 (Lemire, Kaser & Kurz,
/// "Faster remainders when the divisor is a constant", 2019). A unit
/// test pins the selector identical to `%` across all supported shard
/// counts, and interp_throughput's counter-operation rows time both.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_SERVE_SHARDHASH_H
#define PPP_SERVE_SHARDHASH_H

#include <cstdint>

namespace ppp {
namespace serve {

/// What a server-side counter counts.
enum class CountKind : uint8_t {
  Path = 0,    ///< Path-table counter (index = path number).
  Edge = 1,    ///< Edge-profile counter (index = CFG edge id).
  Lost = 2,    ///< Hash-variant lost counter (index = 0).
  Cold = 3,    ///< Checked-counting poison counter (index = 0).
  Invalid = 4, ///< Out-of-range backstop counter (index = 0).
};

/// One fully-qualified aggregation key. Benchmark names are interned to
/// small ids by the aggregator (Bench).
struct AggKey {
  uint16_t Bench = 0;
  CountKind Kind = CountKind::Path;
  uint32_t Func = 0;
  uint64_t Index = 0;

  bool operator==(const AggKey &O) const = default;
  /// Deterministic snapshot order: (bench, kind, func, index).
  auto operator<=>(const AggKey &O) const = default;
};

/// Bit budget of the packed fast-path key:
/// bench (8) | kind (3) | func (21) | index (32).
inline constexpr unsigned PackedBenchBits = 8;
inline constexpr unsigned PackedKindBits = 3;
inline constexpr unsigned PackedFuncBits = 21;
inline constexpr unsigned PackedIndexBits = 32;

/// The reserved "empty cell" value; packKey never produces it (kind 7
/// is unused).
inline constexpr uint64_t EmptyPackedKey = ~uint64_t(0);

/// True when \p K fits the packed budget (the overwhelmingly common
/// case; oversized keys take the per-shard overflow table instead).
inline bool fitsPacked(const AggKey &K) {
  return K.Bench < (1u << PackedBenchBits) &&
         K.Func < (1u << PackedFuncBits) &&
         K.Index < (uint64_t(1) << PackedIndexBits);
}

inline uint64_t packKey(const AggKey &K) {
  return (static_cast<uint64_t>(K.Bench)
          << (PackedKindBits + PackedFuncBits + PackedIndexBits)) |
         (static_cast<uint64_t>(K.Kind)
          << (PackedFuncBits + PackedIndexBits)) |
         (static_cast<uint64_t>(K.Func) << PackedIndexBits) | K.Index;
}

/// The kind bits of a packed key, read without unpacking the rest
/// (EmptyPackedKey reads as kind 7, which no counter has).
inline CountKind packedKind(uint64_t P) {
  return static_cast<CountKind>((P >> (PackedFuncBits + PackedIndexBits)) &
                                ((1u << PackedKindBits) - 1));
}

inline AggKey unpackKey(uint64_t P) {
  AggKey K;
  K.Index = P & ((uint64_t(1) << PackedIndexBits) - 1);
  K.Func = static_cast<uint32_t>(P >> PackedIndexBits) &
           ((1u << PackedFuncBits) - 1);
  K.Kind = packedKind(P);
  K.Bench = static_cast<uint16_t>(
      P >> (PackedKindBits + PackedFuncBits + PackedIndexBits));
  return K;
}

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
inline uint64_t mixKey(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Full-key hash for keys that do not fit the packed form.
inline uint64_t hashAggKey(const AggKey &K) {
  uint64_t H = mixKey((static_cast<uint64_t>(K.Bench) << 40) |
                      (static_cast<uint64_t>(K.Kind) << 32) | K.Func);
  return mixKey(H ^ K.Index);
}

/// Folds a 64-bit hash to the 32 bits the reciprocal remainder needs.
inline uint32_t fold32(uint64_t H) {
  return static_cast<uint32_t>(H ^ (H >> 32));
}

/// Maps hashes to [0, NumShards) by exact reciprocal remainder,
/// bit-identical to `fold32(hash) % NumShards`.
class ShardSelector {
public:
  explicit ShardSelector(uint32_t NumShards)
      : D(NumShards), M(NumShards > 1 ? ~uint64_t(0) / NumShards + 1 : 0) {}

  uint32_t numShards() const { return D; }

  uint32_t operator()(uint64_t Hash) const {
#if defined(__SIZEOF_INT128__)
    if (D <= 1)
      return 0;
    uint64_t Low = M * fold32(Hash); // mod 2^64
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(Low) * D) >> 64);
#else
    return D <= 1 ? 0 : fold32(Hash) % D;
#endif
  }

private:
  uint32_t D;
  uint64_t M;
};

} // namespace serve
} // namespace ppp

#endif // PPP_SERVE_SHARDHASH_H
