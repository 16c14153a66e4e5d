//===- interp/Decoded.h - Pre-decoded flat code ----------------*- C++ -*-===//
///
/// \file
/// The interpreter's internal code representation. The IR stores each
/// function as per-block `std::vector<Instr>`, which forces the hot
/// dispatch loop through three dependent indirections per instruction
/// (function -> block -> instruction) and re-resolves branch targets to
/// (block, index 0) on every taken edge.
///
/// Decoding flattens one function at a time:
///
///  - all blocks concatenate into one contiguous `DecodedInstr` array,
///    so execution advances a single flat instruction pointer;
///  - branch targets become precomputed flat offsets (the start offset
///    of the successor block), pooled per function;
///  - each instruction carries its cost-model weight, and the first
///    instruction of each *segment* carries the segment's length and
///    summed cost, so the dispatch loop checks fuel and charges cost
///    once per segment (see below);
///  - each instruction carries a *dispatch index*: its opcode's variant
///    that reads an operand from the previous instruction's result,
///    which the loop keeps in a local (`Last`), instead of reloading it
///    from the register arena it was just stored to;
///  - the source block id rides along on terminators, because edge
///    observers identify edges as (function, source block, successor
///    index).
///
/// A segment runs from a block start, or from the instruction after a
/// Call, through the next Call or terminator. Control enters a segment
/// only at its head (branches target block starts; a return resumes
/// after its Call), and every point that reads the run's cost or
/// instruction count mid-run -- the adaptive epoch hook at a Call, the
/// trace seals and cost stamps at CondBr/Switch/Ret -- is a segment's
/// last instruction, where per-segment and per-instruction accounting
/// agree. An operand is forwarded only from the previous instruction
/// of the same segment, so `Last` never crosses a jump or a frame.
///
/// Functions decode independently (first-touch lazily, see
/// interp/VersionTable.h), and a decoded function is a *version*: the
/// adaptive controller decodes re-optimized bodies of the same FuncId
/// and hot-swaps them at call boundaries. Decoded code is a cache: it
/// never changes module semantics, and the `RunResult` of executing it
/// is bit-identical to walking the IR.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_INTERP_DECODED_H
#define PPP_INTERP_DECODED_H

#include "interp/CostModel.h"
#include "ir/Module.h"

#include <array>
#include <cstdint>
#include <vector>

namespace ppp {

/// Every opcode, in Opcode enum order, with its result kind and the
/// register operands the decoder may forward from the previous
/// instruction's result. The kind is Value when the body writes R[A]
/// (and so the loop's `Last`), Effect otherwise; the loop labels each
/// body by its kind, so a kind that disagrees with the body fails to
/// compile. The operands are the first and the second, each a
/// DecodedInstr field or None. An opcode with F forwardable operands
/// has 1 << F dispatch variants; bit 0 of the variant number forwards
/// the first, bit 1 the second.
#define PPP_DISPATCH_FORMS(X)                                                \
  X(Const, Value, None, None)                                                \
  X(Mov, Value, B, None)                                                     \
  X(Add, Value, B, C)                                                        \
  X(Sub, Value, B, C)                                                        \
  X(Mul, Value, B, C)                                                        \
  X(DivU, Value, B, C)                                                       \
  X(RemU, Value, B, C)                                                       \
  X(And, Value, B, C)                                                        \
  X(Or, Value, B, C)                                                         \
  X(Xor, Value, B, C)                                                        \
  X(Shl, Value, B, C)                                                        \
  X(Shr, Value, B, C)                                                        \
  X(AddImm, Value, B, None)                                                  \
  X(MulImm, Value, B, None)                                                  \
  X(CmpEq, Value, B, C)                                                      \
  X(CmpNe, Value, B, C)                                                      \
  X(CmpLt, Value, B, C)                                                      \
  X(CmpLe, Value, B, C)                                                      \
  X(Load, Value, B, None)                                                    \
  X(Store, Effect, A, B)                                                     \
  X(Call, Effect, None, None)                                                \
  X(Br, Effect, None, None)                                                  \
  X(CondBr, Effect, A, None)                                                 \
  X(Switch, Effect, A, None)                                                 \
  X(Ret, Effect, A, None)                                                    \
  X(ProfSet, Effect, None, None)                                             \
  X(ProfAdd, Effect, None, None)                                             \
  X(ProfCountIdx, Effect, None, None)                                        \
  X(ProfCountConst, Effect, None, None)                                      \
  X(ProfCheckedCountIdx, Effect, None, None)                                 \
  X(ProfChainIdx, Effect, None, None)                                        \
  X(ProfChainConst, Effect, None, None)                                      \
  X(ProfChainRetIdx, Effect, None, None)                                     \
  X(ProfChainRetConst, Effect, None, None)

/// A result kind and a register operand field of DecodedInstr, for
/// PPP_DISPATCH_FORMS.
enum class ResultKind : uint8_t { Effect, Value };
enum class OperandField : uint8_t { None, A, B, C };

struct ForwardForm {
  Opcode Op;
  ResultKind Result;
  OperandField First, Second;
  constexpr unsigned variants() const {
    return 1u << ((First != OperandField::None) +
                  (Second != OperandField::None));
  }
};

inline constexpr ForwardForm ForwardForms[] = {
#define PPP_FORWARD_FORM(Name, Result, First, Second)                        \
  {Opcode::Name, ResultKind::Result, OperandField::First,                    \
   OperandField::Second},
    PPP_DISPATCH_FORMS(PPP_FORWARD_FORM)
#undef PPP_FORWARD_FORM
};

/// DispatchBase[Op] is the dispatch index of \p Op's variant 0, the one
/// that reads every operand from the register arena (the original
/// opcode); DispatchBase[NumOpcodes] is the number of dispatch indices.
inline constexpr std::array<uint8_t, NumOpcodes + 1> DispatchBase = [] {
  std::array<uint8_t, NumOpcodes + 1> Base{};
  for (unsigned Op = 0; Op < NumOpcodes; ++Op)
    Base[Op + 1] =
        static_cast<uint8_t>(Base[Op] + ForwardForms[Op].variants());
  return Base;
}();
inline constexpr unsigned NumDispatch = DispatchBase[NumOpcodes];

static_assert(std::size(ForwardForms) == NumOpcodes,
              "PPP_DISPATCH_FORMS must list every opcode");
static_assert(
    [] {
      for (unsigned Op = 0; Op < NumOpcodes; ++Op)
        if (ForwardForms[Op].Op != static_cast<Opcode>(Op))
          return false;
      return true;
    }(),
    "PPP_DISPATCH_FORMS must list the opcodes in Opcode enum order");
static_assert(NumDispatch <= 256, "dispatch indices must fit a uint8_t");

/// One flattened instruction. Same semantic fields as Instr, plus the
/// precomputed dispatch data (dispatch index, cost, segment totals,
/// flat branch targets, source block).
struct DecodedInstr {
  Opcode Op = Opcode::Const; ///< The IR opcode.
  uint8_t Dispatch = 0;      ///< Jump-table index (see DispatchBase).
  uint16_t NumTargets = 0;   ///< Terminators only (Switch modulo base).
  uint32_t Cost = 0;         ///< Precomputed cost-model weight.
  RegId A = -1;
  RegId B = -1;
  RegId C = -1;
  BlockId Block = -1; ///< Owning block (edge-observer source id).
  int64_t Imm = 0;
  uint32_t SegLen = 0;  ///< Segment heads only: instructions in the segment.
  uint32_t SegCost = 0; ///< Segment heads only: the sum of their Cost.
  union {
    FuncId Callee = -1;    ///< Call only.
    uint32_t TargetsBegin; ///< Terminators only: index into Targets.
  };
  std::array<RegId, MaxCallArgs> Args = {-1, -1, -1, -1};
  uint8_t NumArgs = 0; ///< Call only.
};

static_assert(sizeof(DecodedInstr) == 64,
              "a decoded instruction is one cache line");

/// True if \p Op's body writes R[A], and so the loop's `Last`.
constexpr bool producesValue(Opcode Op) {
  return ForwardForms[static_cast<uint8_t>(Op)].Result == ResultKind::Value;
}

/// The field holding operand \p K (0: first, 1: second) of \p Op's
/// PPP_DISPATCH_FORMS entry, or null if it has none.
constexpr RegId DecodedInstr::*forwardedField(Opcode Op, unsigned K) {
  const ForwardForm &Form = ForwardForms[static_cast<uint8_t>(Op)];
  switch (K == 0 ? Form.First : Form.Second) {
  case OperandField::A:
    return &DecodedInstr::A;
  case OperandField::B:
    return &DecodedInstr::B;
  case OperandField::C:
    return &DecodedInstr::C;
  case OperandField::None:
    break;
  }
  return nullptr;
}

/// One function's flat code -- one *version* of that function.
struct DecodedFunction {
  unsigned NumRegs = 0;
  unsigned NumParams = 0;
  std::vector<DecodedInstr> Code; ///< All blocks, concatenated in order.
  std::vector<uint32_t> BlockStart; ///< Flat offset of each block's first instruction.
  std::vector<uint32_t> Targets; ///< Pooled successor offsets (flat, per terminator).
};

/// Flattens \p Fn. \p HashedTable prices the ProfCount* ops for a
/// hash-organized PathTable (more expensive than array counters).
/// Aborts with a diagnostic if a segment's summed cost does not fit
/// SegCost.
DecodedFunction decodeFunction(const Function &Fn, const CostModel &Costs,
                               bool HashedTable);

/// Re-derives the cost of every profiling-counter instruction in \p DF,
/// and the segment costs, for the given table kind. Called when a
/// ProfileRuntime is attached or detached after the function was
/// already decoded.
void repriceProfilingCosts(DecodedFunction &DF, const CostModel &Costs,
                           bool HashedTable);

} // namespace ppp

#endif // PPP_INTERP_DECODED_H
