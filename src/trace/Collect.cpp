//===- trace/Collect.cpp - One profiling run, either backend --------------===//

#include "trace/Collect.h"

#include "trace/TraceDecoder.h"

#include "obs/Obs.h"
#include "profile/Collectors.h"

#include <optional>

using namespace ppp;
using namespace ppp::trace;

bool ppp::trace::collect(const Module &CleanM,
                         const InstrumentationResult &IR,
                         const InterpOptions &IO, ProfileRuntime &RT,
                         RunResult &Res, std::string &Error,
                         PathTimingProfile *Timing,
                         const EdgeProfile *CleanEP) {
  const ProfilerOptions &Opts = IR.Options;
  const bool Traced = Opts.TraceBackend;
  Interpreter I(Traced ? CleanM : IR.Instrumented, IO);
  std::optional<TraceRecorder> Rec;
  if (Traced) {
    Rec.emplace(DefaultTraceChunkBytes, Opts.TraceTimestamps);
    I.setTraceRecorder(&*Rec);
  } else {
    I.setProfileRuntime(&RT);
  }
  Res = I.run();
  if (Res.FuelExhausted) {
    Error = Traced ? "traced run hung" : "instrumented run hung";
    return false;
  }
  // A recording ran the clean module, so the clean counts are its own;
  // lowering maps them onto the instrumented module a counter run ran.
  if (CleanEP && obs::interpStatsEnabled())
    recordOpCounts(Traced ? deriveOpCounts(CleanM, blockFreqs(CleanM, *CleanEP))
                          : deriveOpCounts(IR.Instrumented,
                                           IR.blockFreqs(*CleanEP)));
  if (!Traced)
    return true;

  TraceDecoder Dec(CleanM, IR, IO.Costs);
  DecodeStats DS;
  std::string DecodeError;
  if (!Dec.decode(Rec->recording(), RT, DS, DecodeError,
                  Opts.TraceTimestamps ? Timing : nullptr)) {
    Error = "trace decode failed: " + DecodeError;
    return false;
  }
  return true;
}
