//===- interp/PathTable.h - Path frequency counters ------------*- C++ -*-===//
///
/// \file
/// Runtime storage for path frequency counts, mirroring Section 7.4 of
/// the paper: 64-bit counters; a plain array when the routine has at
/// most 4000 possible paths (after cold-path elimination), otherwise a
/// hash table with 701 slots and three tries of secondary hashing plus a
/// "lost path" counter for conflicts.
///
/// As an engineering backstop, both variants bounds-check indices:
/// indices outside the statically computed range increment an Invalid
/// counter instead of corrupting memory (this should never fire; tests
/// assert it stays zero).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_INTERP_PATHTABLE_H
#define PPP_INTERP_PATHTABLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ppp {

/// Number of slots in the hash variant (prime; from the paper).
inline constexpr uint64_t PathHashSlots = 701;
/// Number of probes before declaring a path lost (from the paper).
inline constexpr unsigned PathHashTries = 3;

/// Remainder modulo a small compile-time constant via a fixed-point
/// reciprocal multiply (Granlund-Montgomery), replacing the hardware
/// divide the `%` operator would emit. The hash-variant counter probe
/// computes three remainders per increment, so this is its hot path.
///
/// With the round-up magic M = ceil(2^73 / D), the quotient
/// floor(N * M / 2^73) is *exact* for every 64-bit N whenever
/// M*D - 2^73 <= 2^9 (Granlund & Montgomery, PLDI '94, Thm 4.2) --
/// which holds for both divisors the probe uses (701 and 699), so the
/// remainder is one multiply-high, a shift, and a multiply-back, with
/// no correction step. Divisors where the bound fails fall back to a
/// floor magic that undershoots by at most one (truncation error is
/// below N/2^73 < 1) plus one conditional subtract. 2^73/D fits in 64
/// bits for D > 512.
/// Compile-time precondition of fastRemainder. static_assert messages
/// must be string literals, so the offending divisor cannot appear in
/// the message itself; instead the check lives in this helper, whose
/// failing instantiation -- FastRemainderDivisorInRange<D, false> --
/// spells out the bad D in the compiler's "in instantiation of"
/// backtrace. Do not pass the second argument explicitly.
template <uint64_t D, bool InRange = (D > 512 && D < (uint64_t(1) << 32))>
struct FastRemainderDivisorInRange {
  static_assert(InRange,
                "fastRemainder: the reciprocal shift of 73 requires a "
                "divisor D with 512 < D < 2^32; the rejected D is the "
                "first argument of the FastRemainderDivisorInRange<D, "
                "false> instantiation reported just above/below this "
                "message");
  static constexpr bool Value = InRange;
};

template <uint64_t D> inline uint64_t fastRemainder(uint64_t N) {
  static_assert(FastRemainderDivisorInRange<D>::Value,
                "reciprocal shift of 73 requires 512 < D < 2^32");
#if defined(__SIZEOF_INT128__)
  constexpr int Shift = 73;
  constexpr unsigned __int128 Pow = static_cast<unsigned __int128>(1) << Shift;
  constexpr uint64_t CeilMagic = static_cast<uint64_t>((Pow + D - 1) / D);
  constexpr bool Exact =
      static_cast<unsigned __int128>(CeilMagic) * D - Pow <=
      (static_cast<unsigned __int128>(1) << (Shift - 64));
  if constexpr (Exact) {
    uint64_t Q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(N) * CeilMagic) >> Shift);
    return N - Q * D;
  } else {
    constexpr uint64_t FloorMagic = static_cast<uint64_t>(Pow / D);
    uint64_t Q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(N) * FloorMagic) >> Shift);
    uint64_t R = N - Q * D;
    if (R >= D)
      R -= D;
    return R;
  }
#else
  return N % D;
#endif
}

/// A per-function path frequency table.
class PathTable {
public:
  enum class Kind : uint8_t {
    None,  ///< Function not instrumented.
    Array, ///< Direct-indexed 64-bit counters.
    Hash,  ///< 701-slot open-addressed hash with 3 probes.
  };

  PathTable() = default;

  static PathTable makeArray(uint64_t Size);
  static PathTable makeHash();

  Kind kind() const { return TableKind; }

  /// Records one execution of the path with index \p Index.
  void increment(int64_t Index);

  /// Original-TPP checked counting: negative indices mean the register
  /// was poisoned on a cold edge; they bump the cold counter.
  void incrementChecked(int64_t Index) {
    if (Index < 0)
      ++ColdChecked;
    else
      increment(Index);
  }

  /// Records \p N executions of the path with index \p Index, exactly
  /// equivalent to \p N increment() calls: the first claims or finds the
  /// slot, the rest land where it landed, so batching preserves slot
  /// assignment and lost/invalid accounting bit-for-bit. The trace
  /// decoder's run-length-batched replay depends on this equivalence
  /// (pathtable_test pins it).
  void add(int64_t Index, uint64_t N);

  /// incrementChecked() \p N times (same batching equivalence).
  void addChecked(int64_t Index, uint64_t N) {
    if (Index < 0)
      ColdChecked += N;
    else
      add(Index, N);
  }

  /// Cold paths caught by checked counting.
  uint64_t coldCheckedCount() const { return ColdChecked; }

  /// Count recorded for \p Index (0 if absent or lost).
  uint64_t countFor(int64_t Index) const;

  /// Zeroes every counter (including lost/invalid/cold) in place,
  /// keeping the table kind and its storage. Equivalent to rebuilding
  /// the table fresh, without the allocation churn.
  void reset() {
    std::fill(Counts.begin(), Counts.end(), 0);
    std::fill(Slots.begin(), Slots.end(), HashSlot());
    Lost = 0;
    Invalid = 0;
    ColdChecked = 0;
  }

  /// Invokes \p Callback for every (index, count) pair with count > 0.
  /// Takes the callable as a template parameter so hot readout loops
  /// pay no std::function type-erasure cost.
  template <typename CallbackT> void forEach(CallbackT &&Callback) const {
    switch (TableKind) {
    case Kind::None:
      return;
    case Kind::Array:
      for (size_t I = 0; I < Counts.size(); ++I)
        if (Counts[I] > 0)
          Callback(static_cast<int64_t>(I), Counts[I]);
      return;
    case Kind::Hash:
      for (const HashSlot &S : Slots)
        if (S.Count > 0)
          Callback(S.Key, S.Count);
      return;
    }
  }

  /// Paths dropped due to hash conflicts.
  uint64_t lostCount() const { return Lost; }

  /// Out-of-range indices (engineering backstop; should be zero).
  uint64_t invalidCount() const { return Invalid; }

  /// Counter-update work, as the interp.table.* metrics report it.
  struct Traffic {
    uint64_t Increments = 0; ///< Counter updates attempted.
    uint64_t Probes = 0;     ///< Hash slots examined (array hits count 1).
    uint64_t Collisions = 0; ///< Probes that found another path's slot.
    uint64_t Lost = 0;       ///< Updates dropped after PathHashTries probes.
    uint64_t Invalid = 0;    ///< Out-of-range indices (backstop counter).
    uint64_t Cold = 0;       ///< Checked-counting poison hits.
  };

  /// Adds to \p T the work the counts stored since the last reset()
  /// imply. Slots are never released before reset(), so a key stored
  /// at position t of its probe sequence cost t + 1 probes and t
  /// collisions on every increment, and a lost update PathHashTries of
  /// each; an array hit costs one probe.
  void addTraffic(Traffic &T) const;

  /// Array variant size (0 for other kinds).
  uint64_t arraySize() const {
    return TableKind == Kind::Array ? Counts.size() : 0;
  }

private:
  struct HashSlot {
    int64_t Key = -1;
    uint64_t Count = 0;
  };

  Kind TableKind = Kind::None;
  std::vector<uint64_t> Counts;  ///< Array variant.
  std::vector<HashSlot> Slots;   ///< Hash variant.
  uint64_t Lost = 0;
  uint64_t Invalid = 0;
  uint64_t ColdChecked = 0;
};

} // namespace ppp

#endif // PPP_INTERP_PATHTABLE_H
