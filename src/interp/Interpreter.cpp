//===- interp/Interpreter.cpp - IR interpreter -----------------------------===//
///
/// run() picks one ExecMode row from what is attached and switches on
/// it. The rows must stay semantically identical: the determinism
/// tests in tests/fastpath_test.cpp and tests/obs_test.cpp assert
/// bit-equal RunResults across all of them for the benchmark suite.
///
/// This TU compiles the dispatch loop (interp/InterpreterLoop.inc) for
/// the Clean, Observed and Profiled rows only; the telemetry twins
/// live in InterpreterStats.cpp, the recording rows in
/// InterpreterTrace.cpp and InterpreterTraceTimed.cpp, and the
/// adaptive row in InterpreterAdapt.cpp, so their presence cannot
/// perturb the clean loop's code generation (see the .inc header for
/// why that separation is measured, not cosmetic).
///
/// Dispatch is threaded (labels-as-values) under GCC/Clang: every
/// opcode body ends in its own indirect jump, so the branch predictor
/// learns per-opcode successor patterns instead of sharing one
/// hard-to-predict dispatch branch. Other compilers get a portable
/// switch loop with identical bodies (the PPP_OP/PPP_NEXT/PPP_JUMP
/// macros expand to labels or cases).
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Obs.h"
#include "trace/TraceRecorder.h" // Header-only; run() reads the timed flag.

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace ppp;

ExecObserver::~ExecObserver() = default;
EpochHook::~EpochHook() = default;

// The other six rows, each compiled in its own TU.
extern template RunResult Interpreter::runImpl<ExecMode::CleanStats>();
extern template RunResult Interpreter::runImpl<ExecMode::ObservedStats>();
extern template RunResult Interpreter::runImpl<ExecMode::ProfiledStats>();
extern template RunResult Interpreter::runImpl<ExecMode::Trace>();
extern template RunResult Interpreter::runImpl<ExecMode::TimedTrace>();
extern template RunResult Interpreter::runImpl<ExecMode::Adaptive>();

namespace {

[[noreturn]] void rejectMix(const char *What) {
  fprintf(stderr, "error: Interpreter::run: %s\n", What);
  abort();
}

/// Trace, timed-trace and adaptive runs have no telemetry twin; when
/// telemetry is on, say which row ran without it.
void noteStatsSkipped(const char *Row) {
  if (obs::interpStatsEnabled())
    obs::counter(std::string("interp.stats_skipped.") + Row).inc();
}

} // namespace

Interpreter::Interpreter(const Module &Mod, const InterpOptions &Options)
    : Opts(Options) {
  MemWords = Mod.addrSpaceWords();
  AddrMask = MemWords - 1;
  MainId = Mod.MainId;
  VT.bind(Mod, Opts.Costs);
  if (Opts.EagerDecode)
    VT.decodeAll();
}

void Interpreter::setProfileRuntime(ProfileRuntime *RT) {
  Runtime = RT;
  VT.setPricingRuntime(RT);
}

ExecMode Interpreter::selectMode() const {
  const bool HasObs = !Observers.empty();
  if (HasObs && (Runtime || TraceRec || Epoch))
    rejectMix("observers watch clean modules only; they cannot run with "
              "a profiling runtime, a trace recorder or an epoch hook");
  if (TraceRec) {
    if (Runtime)
      rejectMix("a trace recorder records a clean module; it cannot run "
                "with a profiling runtime");
    if (Epoch)
      rejectMix("a trace recorder cannot run with an epoch hook");
    const bool Timed = TraceRec->timestampsEnabled();
    noteStatsSkipped(Timed ? "timed_trace" : "trace");
    return Timed ? ExecMode::TimedTrace : ExecMode::Trace;
  }
  if (Epoch) {
    if (!Runtime)
      rejectMix("an epoch hook samples a profiling runtime's counters; "
                "attach a runtime first");
    if (EpochPeriod == 0)
      rejectMix("an epoch hook needs a positive period");
    noteStatsSkipped("adaptive");
    return ExecMode::Adaptive;
  }
  // Telemetry selects a separate row: when disabled (the default), the
  // loop that runs is compiled without any counting code.
  const bool Stats = obs::interpStatsEnabled();
  if (Runtime)
    return Stats ? ExecMode::ProfiledStats : ExecMode::Profiled;
  if (HasObs)
    return Stats ? ExecMode::ObservedStats : ExecMode::Observed;
  return Stats ? ExecMode::CleanStats : ExecMode::Clean;
}

RunResult Interpreter::run() {
  switch (selectMode()) {
  case ExecMode::Clean:
    return runImpl<ExecMode::Clean>();
  case ExecMode::Observed:
    return runImpl<ExecMode::Observed>();
  case ExecMode::Profiled:
    return runImpl<ExecMode::Profiled>();
  case ExecMode::CleanStats:
    return runImpl<ExecMode::CleanStats>();
  case ExecMode::ObservedStats:
    return runImpl<ExecMode::ObservedStats>();
  case ExecMode::ProfiledStats:
    return runImpl<ExecMode::ProfiledStats>();
  case ExecMode::Trace:
    return runImpl<ExecMode::Trace>();
  case ExecMode::TimedTrace:
    return runImpl<ExecMode::TimedTrace>();
  case ExecMode::Adaptive:
    return runImpl<ExecMode::Adaptive>();
  }
  abort();
}

#include "interp/InterpreterLoop.inc"

void interp_detail::profOpWithoutRuntime(Opcode Op, FuncId F) {
  fprintf(stderr,
          "error: Interpreter: %s in function %d ran with no "
          "ProfileRuntime attached; an instrumented module needs "
          "setProfileRuntime()\n",
          opcodeName(Op), F);
  abort();
}

template RunResult Interpreter::runImpl<ExecMode::Clean>();
template RunResult Interpreter::runImpl<ExecMode::Observed>();
template RunResult Interpreter::runImpl<ExecMode::Profiled>();
