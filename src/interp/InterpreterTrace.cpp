//===- interp/InterpreterTrace.cpp - Trace-recording dispatch loop ---------===//
///
/// The Trace row of Interpreter::runImpl<>: the dispatch loop with
/// branch-target packet recording compiled in (CondBr appends a bit, Switch a varint, into the attached
/// trace::TraceRecorder's chunked buffers). Kept out of Interpreter.cpp
/// on purpose: the clean fast path's code generation must not change
/// when recording support is compiled in (see
/// interp/InterpreterLoop.inc).
///
/// Recording runs on clean modules with no observers; run() rejects
/// every other mix.
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

using namespace ppp;

#include "interp/InterpreterLoop.inc"

template RunResult Interpreter::runImpl<ExecMode::Trace>();
