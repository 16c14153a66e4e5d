//===- interp/InterpreterTraceTimed.cpp - Timed trace dispatch loop --------===//
///
/// The TimedTrace row of Interpreter::runImpl<>: the trace-recording
/// dispatch loop with cost stamps compiled in (every Ret appends the zigzag varint delta of the accumulated cost counter
/// into the attached trace::TraceRecorder, and chunk seals capture the
/// absolute cost in the cursor). Kept out of both Interpreter.cpp and
/// InterpreterTrace.cpp on purpose: neither the clean fast path's nor
/// the untimed recording loop's code generation may change when timing
/// support is compiled in (see interp/InterpreterLoop.inc).
///
/// Timing rides the trace stream; run() selects this row off
/// TraceRecorder::timestampsEnabled().
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

using namespace ppp;

#include "interp/InterpreterLoop.inc"

template RunResult Interpreter::runImpl<ExecMode::TimedTrace>();
