//===- trace/Collect.h - One profiling run, either backend -----*- C++ -*-===//
///
/// \file
/// collect() is the one place a path profile is gathered from an
/// instrumentation plan. The plan's options pick the backend:
///
///  - counters (the default): run IR.Instrumented over \p RT;
///  - trace (Options.TraceBackend): run the *clean* module with packet
///    recording, which charges only the recorder's appends
///    (TraceByte per byte, TraceStampByte per stamp byte), then decode
///    the recording into \p RT offline.
///
/// Both leave \p RT bit-identical (the decoder's contract), so callers
/// that flatten or estimate from \p RT never branch on the backend.
/// \p Res is the profiled run's result: its Cost is what the chosen
/// backend costs, the number Figure 12's columns report.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_TRACE_COLLECT_H
#define PPP_TRACE_COLLECT_H

#include "interp/Interpreter.h"
#include "pathprof/Profilers.h"

#include <string>

namespace ppp {
namespace trace {

class PathTimingProfile;

/// Runs one profiling execution of \p CleanM under the plan \p IR
/// (instrumented from \p CleanM) and fills \p RT, which must come from
/// IR.makeRuntime(). \p IO's cost model is both the run's and the
/// decoder's. For a timed trace plan (Options.TraceTimestamps), pass
/// \p Timing to also accumulate the per-path cost attribution; it is
/// ignored otherwise. With obs::interpStatsEnabled(), pass \p CleanEP,
/// \p CleanM's edge profile on the same input, to record the run's
/// interp.op.* counts. Returns false with \p Error set when the run
/// exhausts its fuel or the recording fails to decode; \p RT may then
/// hold a partial profile.
bool collect(const Module &CleanM, const InstrumentationResult &IR,
             const InterpOptions &IO, ProfileRuntime &RT, RunResult &Res,
             std::string &Error, PathTimingProfile *Timing = nullptr,
             const EdgeProfile *CleanEP = nullptr);

} // namespace trace
} // namespace ppp

#endif // PPP_TRACE_COLLECT_H
