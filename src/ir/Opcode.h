//===- ir/Opcode.h - Instruction opcodes -----------------------*- C++ -*-===//
///
/// \file
/// Opcodes for the register-machine IR. The IR is deliberately small:
/// path profiling only cares about control-flow shape and edge
/// frequencies, so the instruction set provides just enough data flow to
/// make branch outcomes data-dependent and runs deterministic.
///
/// The four Prof* opcodes are profiling pseudo-instructions inserted by
/// instrumentation lowering (never by workload generation). They operate
/// on the per-activation path register `r` and the per-function path
/// frequency table, exactly mirroring the instrumentation forms of
/// Ball-Larus profiling after pushing and combining: `r=c`, `r+=c`,
/// `count[r+c]++`, and `count[c]++`.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_IR_OPCODE_H
#define PPP_IR_OPCODE_H

#include <cstdint>

namespace ppp {

enum class Opcode : uint8_t {
  // Data movement and arithmetic: R[A] = ...
  Const,  ///< R[A] = Imm
  Mov,    ///< R[A] = R[B]
  Add,    ///< R[A] = R[B] + R[C]
  Sub,    ///< R[A] = R[B] - R[C]
  Mul,    ///< R[A] = R[B] * R[C]
  DivU,   ///< R[A] = R[B] /u R[C]  (0 if R[C] == 0)
  RemU,   ///< R[A] = R[B] %u R[C]  (0 if R[C] == 0)
  And,    ///< R[A] = R[B] & R[C]
  Or,     ///< R[A] = R[B] | R[C]
  Xor,    ///< R[A] = R[B] ^ R[C]
  Shl,    ///< R[A] = R[B] << (R[C] & 63)
  Shr,    ///< R[A] = R[B] >>u (R[C] & 63)
  AddImm, ///< R[A] = R[B] + Imm
  MulImm, ///< R[A] = R[B] * Imm
  CmpEq,  ///< R[A] = R[B] == R[C]
  CmpNe,  ///< R[A] = R[B] != R[C]
  CmpLt,  ///< R[A] = R[B] <s R[C]
  CmpLe,  ///< R[A] = R[B] <=s R[C]

  // Memory: a single global word-addressed array per module.
  Load,  ///< R[A] = Mem[R[B] & (MemWords-1)]
  Store, ///< Mem[R[B] & (MemWords-1)] = R[A]

  // Calls: R[A] = Callee(R[Args[0..NumArgs-1]]).
  Call,

  // Terminators.
  Br,     ///< goto Targets[0]
  CondBr, ///< if R[A] != 0 goto Targets[0] else goto Targets[1]
  Switch, ///< goto Targets[R[A] %u Targets.size()]
  Ret,    ///< return R[A]

  // Profiling pseudo-instructions (see file comment).
  ProfSet,        ///< r = Imm
  ProfAdd,        ///< r += Imm
  ProfCountIdx,   ///< count[r + Imm]++
  ProfCountConst, ///< count[Imm]++
  /// Original-TPP-style counting with a poison test: if r + Imm is
  /// negative (the register was poisoned on a cold edge), bump the cold
  /// counter instead. Costs one extra unit (the compare-and-branch) --
  /// the overhead PPP's free poisoning exists to remove (Sec. 4.6).
  ProfCheckedCountIdx,

  // k-iteration chaining (D'Elia & Demetrescu): instead of counting a
  // finished Ball-Larus path segment, fold its number into the
  // per-activation chain accumulator as one base-M digit and keep
  // going, flushing a k-path id into the table every K segments. The
  // Chain forms fire on loop back edges (the segment may continue into
  // the next iteration), the ChainRet forms at returns (the activation
  // is over, so the accumulated chain always flushes).
  ProfChainIdx,      ///< chain-step with segment number r + Imm
  ProfChainConst,    ///< chain-step with constant segment number Imm
  ProfChainRetIdx,   ///< chain-flush at return, segment number r + Imm
  ProfChainRetConst, ///< chain-flush at return, constant segment Imm
};

/// Number of opcodes (for dense per-opcode tables, e.g. the dispatch
/// jump table and the interpreter's telemetry counters).
inline constexpr unsigned NumOpcodes =
    static_cast<unsigned>(Opcode::ProfChainRetConst) + 1;

/// Returns true for opcodes that end a basic block.
constexpr bool isTerminatorOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Br:
  case Opcode::CondBr:
  case Opcode::Switch:
  case Opcode::Ret:
    return true;
  default:
    return false;
  }
}

/// Returns true for the profiling pseudo-instructions.
inline bool isProfilingOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::ProfSet:
  case Opcode::ProfAdd:
  case Opcode::ProfCountIdx:
  case Opcode::ProfCountConst:
  case Opcode::ProfCheckedCountIdx:
  case Opcode::ProfChainIdx:
  case Opcode::ProfChainConst:
  case Opcode::ProfChainRetIdx:
  case Opcode::ProfChainRetConst:
    return true;
  default:
    return false;
  }
}

/// Returns the printable mnemonic for \p Op.
const char *opcodeName(Opcode Op);

} // namespace ppp

#endif // PPP_IR_OPCODE_H
