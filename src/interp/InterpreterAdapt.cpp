//===- interp/InterpreterAdapt.cpp - Adaptive dispatch loop ----------------===//
///
/// The Adaptive row of Interpreter::runImpl<>: the dispatch loop with
/// the epoch hook compiled into the Call opcode (every EpochPeriod calls, the attached EpochHook samples the live
/// PathTable counters and may install or revert code versions in the
/// VersionTable -- the adaptive controller's sampling point, DESIGN.md
/// §12). Kept out of Interpreter.cpp on purpose: the clean fast path's code
/// generation must not change when adaptive support is compiled in (see
/// interp/InterpreterLoop.inc).
///
/// The hook samples live counters, so the row always has a runtime and
/// never observers or a recorder; run() rejects every other mix.
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

using namespace ppp;

#include "interp/InterpreterLoop.inc"

template RunResult Interpreter::runImpl<ExecMode::Adaptive>();
