//===- interp/PathTable.cpp - Path frequency counters ----------------------===//

#include "interp/PathTable.h"

using namespace ppp;

PathTable PathTable::makeArray(uint64_t Size) {
  PathTable T;
  T.TableKind = Kind::Array;
  T.Counts.assign(Size, 0);
  return T;
}

PathTable PathTable::makeHash() {
  PathTable T;
  T.TableKind = Kind::Hash;
  T.Slots.assign(PathHashSlots, HashSlot());
  return T;
}

void PathTable::increment(int64_t Index) {
  switch (TableKind) {
  case Kind::None:
    ++Invalid;
    return;
  case Kind::Array:
    if (Index < 0 || static_cast<uint64_t>(Index) >= Counts.size()) {
      ++Invalid;
      return;
    }
    ++Counts[static_cast<size_t>(Index)];
    return;
  case Kind::Hash: {
    if (Index < 0) {
      ++Invalid;
      return;
    }
    uint64_t Key = static_cast<uint64_t>(Index);
    uint64_t H = fastRemainder<PathHashSlots>(Key);
    // Secondary hash must be nonzero and coprime with the (prime) table
    // size so the probe sequence visits distinct slots.
    uint64_t Step = 1 + fastRemainder<PathHashSlots - 2>(Key);
    for (unsigned Try = 0; Try < PathHashTries; ++Try) {
      HashSlot &S = Slots[H];
      if (S.Key == Index || S.Count == 0) {
        S.Key = Index;
        ++S.Count;
        return;
      }
      // H + Step < 2 * PathHashSlots, so one subtract replaces the `%`.
      H += Step;
      if (H >= PathHashSlots)
        H -= PathHashSlots;
    }
    ++Lost;
    return;
  }
  }
}

void PathTable::addTraffic(Traffic &T) const {
  uint64_t Stored = 0;
  switch (TableKind) {
  case Kind::None:
    break;
  case Kind::Array:
    for (uint64_t C : Counts)
      Stored += C;
    T.Probes += Stored;
    break;
  case Kind::Hash:
    for (size_t Slot = 0; Slot < Slots.size(); ++Slot) {
      const HashSlot &S = Slots[Slot];
      if (S.Count == 0)
        continue;
      // Walk increment()'s probe sequence for the key to its slot.
      uint64_t Key = static_cast<uint64_t>(S.Key);
      uint64_t H = fastRemainder<PathHashSlots>(Key);
      uint64_t Step = 1 + fastRemainder<PathHashSlots - 2>(Key);
      uint64_t Pos = 0;
      for (; H != Slot; ++Pos) {
        H += Step;
        if (H >= PathHashSlots)
          H -= PathHashSlots;
      }
      Stored += S.Count;
      T.Probes += S.Count * (Pos + 1);
      T.Collisions += S.Count * Pos;
    }
    T.Probes += PathHashTries * Lost;
    T.Collisions += PathHashTries * Lost;
    break;
  }
  T.Increments += Stored + Lost + Invalid + ColdChecked;
  T.Lost += Lost;
  T.Invalid += Invalid;
  T.Cold += ColdChecked;
}

void PathTable::add(int64_t Index, uint64_t N) {
  if (N == 0)
    return;
  switch (TableKind) {
  case Kind::None:
    Invalid += N;
    return;
  case Kind::Array:
    if (Index < 0 || static_cast<uint64_t>(Index) >= Counts.size()) {
      Invalid += N;
      return;
    }
    Counts[static_cast<size_t>(Index)] += N;
    return;
  case Kind::Hash: {
    if (Index < 0) {
      Invalid += N;
      return;
    }
    // Probe exactly like increment(): after the first of N increments
    // claims (or fails to claim) a slot, the remaining N-1 repeat its
    // outcome, so one probe plus a batched count is equivalent.
    uint64_t Key = static_cast<uint64_t>(Index);
    uint64_t H = fastRemainder<PathHashSlots>(Key);
    uint64_t Step = 1 + fastRemainder<PathHashSlots - 2>(Key);
    for (unsigned Try = 0; Try < PathHashTries; ++Try) {
      HashSlot &S = Slots[H];
      if (S.Key == Index || S.Count == 0) {
        S.Key = Index;
        S.Count += N;
        return;
      }
      H += Step;
      if (H >= PathHashSlots)
        H -= PathHashSlots;
    }
    Lost += N;
    return;
  }
  }
}

uint64_t PathTable::countFor(int64_t Index) const {
  switch (TableKind) {
  case Kind::None:
    return 0;
  case Kind::Array:
    if (Index < 0 || static_cast<uint64_t>(Index) >= Counts.size())
      return 0;
    return Counts[static_cast<size_t>(Index)];
  case Kind::Hash: {
    if (Index < 0)
      return 0;
    uint64_t Key = static_cast<uint64_t>(Index);
    uint64_t H = fastRemainder<PathHashSlots>(Key);
    uint64_t Step = 1 + fastRemainder<PathHashSlots - 2>(Key);
    for (unsigned Try = 0; Try < PathHashTries; ++Try) {
      const HashSlot &S = Slots[H];
      if (S.Key == Index)
        return S.Count;
      if (S.Count == 0)
        return 0;
      H += Step;
      if (H >= PathHashSlots)
        H -= PathHashSlots;
    }
    return 0;
  }
  }
  return 0;
}

