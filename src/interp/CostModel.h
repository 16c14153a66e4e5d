//===- interp/CostModel.h - Architectural cost model -----------*- C++ -*-===//
///
/// \file
/// A deterministic per-instruction cost model standing in for the
/// paper's Alpha 21164 hardware. Profiling overhead in the benchmark
/// harness is the ratio of instrumented to clean dynamic cost, so only
/// *relative* costs matter. The hash-counter cost is five times the
/// array-counter cost, following the paper's estimate that "hashing is
/// about five times more expensive than an array" (Sec. 3.2);
/// `bench/interp_throughput`'s counter-operation rows measure that
/// ratio on real hardware.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_INTERP_COSTMODEL_H
#define PPP_INTERP_COSTMODEL_H

#include "ir/Opcode.h"

#include <cstdint>
#include <initializer_list>

namespace ppp {

/// Per-opcode dynamic cost weights.
struct CostModel {
  uint32_t Simple = 1;      ///< Moves, adds, compares, logic.
  uint32_t Mul = 3;         ///< Mul, MulImm.
  uint32_t Div = 8;         ///< DivU, RemU.
  uint32_t Mem = 2;         ///< Load, Store.
  uint32_t CallOverhead = 5;
  uint32_t RetOverhead = 2;
  uint32_t Branch = 1;      ///< Br, CondBr.
  uint32_t Multiway = 2;    ///< Switch.
  uint32_t ProfReg = 1;     ///< ProfSet, ProfAdd (one ALU op).
  uint32_t ProfCountArray = 3; ///< load/add/store of a counter word.
  uint32_t ProfCountHash = 15; ///< ~5x the array counter (Sec. 3.2).
  uint32_t PoisonCheck = 1;    ///< Original TPP's r < 0 test per count.
  /// Trace collection backend: cost per emitted branch-target packet
  /// byte (shift/or into a register plus an amortized buffered store).
  /// Charged per byte rather than per opcode -- six conditional-branch
  /// outcomes share one byte, which is the backend's whole advantage.
  uint32_t TraceByte = 2;
  /// Timing-annotated tracing: cost per emitted cost-stamp varint byte
  /// (the delta-compressed timestamp written at due Rets). Split
  /// from TraceByte so experiments can price the timing channel
  /// separately, and cheaper than it: a TNT byte's price covers six
  /// per-branch shift/or updates plus the store, while a stamp byte is
  /// one subtract and a couple of shift/mask steps folded into a
  /// single bulk append of an already-live counter.
  uint32_t TraceStampByte = 1;
  /// k-iteration chaining: the digit fold (one add, one multiply by the
  /// per-function chain base) a ProfChain* op performs before or
  /// instead of the table update. Charged on every chain op as a
  /// uniform upper bound -- a non-flushing step skips the table but
  /// pays the fold, a flushing step pays both.
  uint32_t ProfChainStep = 2;

  /// The default weights above approximate a simple modern core. This
  /// preset instead approximates the paper's Alpha 21164: multi-cycle
  /// memory and multiplies make the counter update (load/add/store, no
  /// forwarding) far more expensive relative to plain ALU work, which
  /// is what pushed Ball-Larus overheads toward 31% there.
  static CostModel alpha21164() {
    CostModel C;
    C.Simple = 1;
    C.Mul = 8;
    C.Div = 40;
    C.Mem = 3;
    C.CallOverhead = 8;
    C.RetOverhead = 3;
    C.Branch = 1;
    C.Multiway = 3;
    C.ProfReg = 1;
    C.ProfCountArray = 9;
    C.ProfCountHash = 45;
    C.PoisonCheck = 2;
    C.TraceByte = 3; // Stores are 3 cycles here; appends batch into them.
    C.TraceStampByte = 2;
    C.ProfChainStep = 9; // The fold's multiply dominates on this core.
    return C;
  }

  /// Order-sensitive FNV-1a fingerprint of every weight. Stamped into
  /// serialized artifacts (trace recordings) so a consumer can reject a
  /// model mismatch up front instead of diagnosing the divergence it
  /// causes downstream.
  uint64_t key() const {
    uint64_t H = 1469598103934665603ULL;
    for (uint32_t V : {Simple, Mul, Div, Mem, CallOverhead, RetOverhead,
                       Branch, Multiway, ProfReg, ProfCountArray,
                       ProfCountHash, PoisonCheck, TraceByte,
                       TraceStampByte, ProfChainStep}) {
      H ^= V;
      H *= 1099511628211ULL;
    }
    return H;
  }

  /// Cost of \p Op; for ProfCountIdx/ProfCountConst pass whether the
  /// function's table is hashed.
  uint32_t costOf(Opcode Op, bool HashedTable = false) const {
    switch (Op) {
    case Opcode::Mul:
    case Opcode::MulImm:
      return Mul;
    case Opcode::DivU:
    case Opcode::RemU:
      return Div;
    case Opcode::Load:
    case Opcode::Store:
      return Mem;
    case Opcode::Call:
      return CallOverhead;
    case Opcode::Ret:
      return RetOverhead;
    case Opcode::Br:
    case Opcode::CondBr:
      return Branch;
    case Opcode::Switch:
      return Multiway;
    case Opcode::ProfSet:
    case Opcode::ProfAdd:
      return ProfReg;
    case Opcode::ProfCountIdx:
    case Opcode::ProfCountConst:
      return HashedTable ? ProfCountHash : ProfCountArray;
    case Opcode::ProfCheckedCountIdx:
      return (HashedTable ? ProfCountHash : ProfCountArray) + PoisonCheck;
    case Opcode::ProfChainIdx:
    case Opcode::ProfChainConst:
    case Opcode::ProfChainRetIdx:
    case Opcode::ProfChainRetConst:
      return ProfChainStep + (HashedTable ? ProfCountHash : ProfCountArray);
    default:
      return Simple;
    }
  }
};

} // namespace ppp

#endif // PPP_INTERP_COSTMODEL_H
