//===- trace/Collect.cpp - One profiling run, either backend --------------===//

#include "trace/Collect.h"

#include "trace/TraceDecoder.h"

using namespace ppp;
using namespace ppp::trace;

bool ppp::trace::collect(const Module &CleanM,
                         const InstrumentationResult &IR,
                         const InterpOptions &IO, ProfileRuntime &RT,
                         RunResult &Res, std::string &Error,
                         PathTimingProfile *Timing) {
  const ProfilerOptions &Opts = IR.Options;
  if (!Opts.TraceBackend) {
    Interpreter I(IR.Instrumented, IO);
    I.setProfileRuntime(&RT);
    Res = I.run();
    if (Res.FuelExhausted) {
      Error = "instrumented run hung";
      return false;
    }
    return true;
  }

  Interpreter I(CleanM, IO);
  TraceRecorder Rec(DefaultTraceChunkBytes, Opts.TraceTimestamps);
  I.setTraceRecorder(&Rec);
  Res = I.run();
  if (Res.FuelExhausted) {
    Error = "traced run hung";
    return false;
  }
  TraceDecoder Dec(CleanM, IR, IO.Costs);
  DecodeStats DS;
  std::string DecodeError;
  if (!Dec.decode(Rec.recording(), RT, DS, DecodeError,
                  Opts.TraceTimestamps ? Timing : nullptr)) {
    Error = "trace decode failed: " + DecodeError;
    return false;
  }
  return true;
}
