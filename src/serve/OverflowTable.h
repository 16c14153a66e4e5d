//===- serve/OverflowTable.h - Flat per-shard overflow counters -*- C++ -*-===//
///
/// \file
/// The table that holds an aggregator shard's overflow counters: keys
/// that exhausted the lock-free cells' probe budget or do not pack into
/// 64 bits (serve/Aggregator.h).
///
//===----------------------------------------------------------------------===//

#ifndef PPP_SERVE_OVERFLOWTABLE_H
#define PPP_SERVE_OVERFLOWTABLE_H

#include "profile/Merge.h"
#include "serve/ShardHash.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

namespace ppp {
namespace serve {

/// A shard's overflow counters: open addressing with linear probing over
/// a power-of-two array of 24-byte (key, count) slots, grown at 3/4
/// load. An unused kind value marks a slot empty, and deletion shifts
/// the rest of the probe run back instead of leaving tombstones, so a
/// probe stops at the first empty slot and size() is the exact number
/// of live keys. Not thread-safe: the shard's overflow mutex guards it.
class OverflowTable {
public:
  /// Marks an empty slot; CountKind stops at Invalid (4).
  static constexpr CountKind EmptyKind = static_cast<CountKind>(0xff);

  struct Slot {
    AggKey Key{0, EmptyKind, 0, 0};
    uint64_t Count = 0;
  };
  static_assert(sizeof(Slot) == 24);

  static bool live(const Slot &S) { return S.Key.Kind != EmptyKind; }

  size_t size() const { return Live; }
  const std::vector<Slot> &slots() const { return Slots; }
  /// The slot where \p K's probe run starts (the table must be
  /// allocated).
  size_t home(const AggKey &K) const { return hashAggKey(K) >> Shift; }

  void add(const AggKey &K, uint64_t Count) {
    if ((Live + 1) * 4 > Slots.size() * 3)
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = home(K);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (!live(S)) {
        S = {K, Count};
        ++Live;
        return;
      }
      if (S.Key == K) {
        S.Count = saturatingAdd(S.Count, Count);
        return;
      }
    }
  }

  /// Halves every count in place and erases the keys that reach zero.
  /// The scan starts just past an empty slot, so no probe run straddles
  /// its start: an erase only shifts not-yet-visited entries back into
  /// the slot just visited, which is then visited again, and every
  /// entry is halved exactly once.
  void decay() {
    if (Live == 0)
      return;
    size_t Mask = Slots.size() - 1;
    size_t I = 0;
    while (live(Slots[I]))
      ++I;
    for (size_t Left = Mask; Left > 0;) {
      I = (I + 1) & Mask;
      Slot &S = Slots[I];
      if (live(S) && (S.Count >>= 1) == 0) {
        erase(I);
        I = (I - 1) & Mask; // Visit I again.
        continue;
      }
      --Left;
    }
  }

private:
  void grow() {
    std::vector<Slot> Old = std::exchange(
        Slots, std::vector<Slot>(std::max<size_t>(16, 2 * Slots.size())));
    Shift = 64 - std::countr_zero(Slots.size());
    Live = 0;
    for (const Slot &S : Old)
      if (live(S))
        add(S.Key, S.Count);
  }

  /// Backward-shift deletion: each later entry of the probe run moves
  /// into the hole unless its home lies cyclically after the hole.
  void erase(size_t Hole) {
    size_t Mask = Slots.size() - 1;
    for (size_t J = (Hole + 1) & Mask; live(Slots[J]); J = (J + 1) & Mask) {
      if (((J - home(Slots[J].Key)) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = Slot();
    --Live;
  }

  std::vector<Slot> Slots;
  unsigned Shift = 64;
  size_t Live = 0;
};

} // namespace serve
} // namespace ppp

#endif // PPP_SERVE_OVERFLOWTABLE_H
