//===- interp/Decoded.cpp - Pre-decoded flat code --------------------------===//

#include "interp/Decoded.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace ppp;

namespace {

/// True for the opcodes that end a segment.
constexpr bool endsSegment(Opcode Op) {
  return Op == Opcode::Call || isTerminatorOpcode(Op);
}

// A segment's last instruction produces no value, so the decoder never
// forwards `Last` into the next segment.
static_assert(
    [] {
      for (unsigned Op = 0; Op < NumOpcodes; ++Op)
        if (endsSegment(static_cast<Opcode>(Op)) &&
            producesValue(static_cast<Opcode>(Op)))
          return false;
      return true;
    }(),
    "a Call or terminator must not be a Value row of PPP_DISPATCH_FORMS");

/// Writes SegLen and SegCost on every segment head of \p DF (zero
/// elsewhere).
void computeSegments(DecodedFunction &DF) {
  size_t Head = 0;
  uint64_t Cost = 0;
  for (size_t Ip = 0; Ip < DF.Code.size(); ++Ip) {
    DecodedInstr &D = DF.Code[Ip];
    D.SegLen = 0;
    D.SegCost = 0;
    Cost += D.Cost;
    if (!endsSegment(D.Op))
      continue;
    if (Cost > std::numeric_limits<uint32_t>::max()) {
      fprintf(stderr,
              "error: decodeFunction: a straight-line segment of %zu "
              "instructions costs %llu, which does not fit 32 bits\n",
              Ip + 1 - Head, static_cast<unsigned long long>(Cost));
      abort();
    }
    DF.Code[Head].SegLen = static_cast<uint32_t>(Ip + 1 - Head);
    DF.Code[Head].SegCost = static_cast<uint32_t>(Cost);
    Head = Ip + 1;
    Cost = 0;
  }
  assert(Head == DF.Code.size() && "code must end in a terminator");
}

} // namespace

DecodedFunction ppp::decodeFunction(const Function &Fn, const CostModel &Costs,
                                    bool HashedTable) {
  DecodedFunction DF;
  DF.NumRegs = Fn.NumRegs;
  DF.NumParams = Fn.NumParams;

  DF.BlockStart.reserve(Fn.Blocks.size());
  uint32_t Offset = 0;
  for (const BasicBlock &BB : Fn.Blocks) {
    DF.BlockStart.push_back(Offset);
    Offset += static_cast<uint32_t>(BB.Instrs.size());
  }

  DF.Code.reserve(Offset);
  for (size_t B = 0; B < Fn.Blocks.size(); ++B) {
    for (const Instr &I : Fn.Blocks[B].Instrs) {
      DecodedInstr D;
      D.Op = I.Op;
      D.NumArgs = I.NumArgs;
      D.Cost = Costs.costOf(I.Op, HashedTable);
      D.A = I.A;
      D.B = I.B;
      D.C = I.C;
      D.Imm = I.Imm;
      D.Block = static_cast<BlockId>(B);
      D.Args = I.Args;
      if (I.Op == Opcode::Call)
        D.Callee = I.Callee;
      if (!I.Targets.empty()) {
        assert(I.isTerminator() && "targets on a non-terminator");
        D.NumTargets = static_cast<uint16_t>(I.Targets.size());
        D.TargetsBegin = static_cast<uint32_t>(DF.Targets.size());
        for (BlockId T : I.Targets) {
          assert(T >= 0 && static_cast<size_t>(T) < DF.BlockStart.size() &&
                 "branch target out of range");
          DF.Targets.push_back(DF.BlockStart[static_cast<size_t>(T)]);
        }
      }
      // Forward each operand the previous instruction has just written.
      // A producing predecessor is always in the same segment (see the
      // static_assert above).
      unsigned Variant = 0;
      if (!DF.Code.empty() && producesValue(DF.Code.back().Op)) {
        RegId Prev = DF.Code.back().A;
        for (unsigned Operand = 0; Operand < 2; ++Operand)
          if (RegId DecodedInstr::*F = forwardedField(I.Op, Operand);
              F && D.*F == Prev)
            Variant |= 1u << Operand;
      }
      D.Dispatch = static_cast<uint8_t>(
          DispatchBase[static_cast<uint8_t>(I.Op)] + Variant);
      DF.Code.push_back(D);
    }
  }
  computeSegments(DF);
  return DF;
}

void ppp::repriceProfilingCosts(DecodedFunction &DF, const CostModel &Costs,
                                bool HashedTable) {
  for (DecodedInstr &D : DF.Code)
    switch (D.Op) {
    case Opcode::ProfCountIdx:
    case Opcode::ProfCountConst:
    case Opcode::ProfCheckedCountIdx:
    case Opcode::ProfChainIdx:
    case Opcode::ProfChainConst:
    case Opcode::ProfChainRetIdx:
    case Opcode::ProfChainRetConst:
      D.Cost = Costs.costOf(D.Op, HashedTable);
      break;
    default:
      break;
    }
  computeSegments(DF);
}
