//===- interp/Interpreter.cpp - IR interpreter -----------------------------===//
///
/// run() picks one ExecMode row from what is attached and switches on
/// it. The rows must stay semantically identical: the determinism
/// tests in tests/fastpath_test.cpp and tests/obs_test.cpp assert
/// bit-equal RunResults across all of them for the benchmark suite.
///
/// This TU compiles the dispatch loop (interp/InterpreterLoop.inc) for
/// the Clean, Observed and Profiled rows only; the recording rows live
/// in InterpreterTrace.cpp and InterpreterTraceTimed.cpp, and the
/// adaptive row in InterpreterAdapt.cpp, so their presence cannot
/// perturb the clean loop's code generation (see the .inc header for
/// why that separation is measured, not cosmetic).
///
/// Dispatch is threaded (labels-as-values, GCC/Clang): each body ends
/// in an indirect jump through the jump table, though the compiler may
/// merge identical body tails so that several bodies share one. Fuel
/// and cost are charged once per straight-line segment, and an operand
/// the previous instruction just produced is read from a local instead
/// of the register arena (interp/Decoded.h).
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

// The other three rows, each compiled in its own TU.
extern template RunResult Interpreter::runImpl<ExecMode::Trace>();
extern template RunResult Interpreter::runImpl<ExecMode::TimedTrace>();
extern template RunResult Interpreter::runImpl<ExecMode::Adaptive>();

namespace {

[[noreturn]] void rejectMix(const char *What) {
  fprintf(stderr, "error: Interpreter::run: %s\n", What);
  abort();
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
    return TraceRec->timestampsEnabled() ? ExecMode::TimedTrace
                                         : ExecMode::Trace;
  }
  if (Epoch) {
    if (!Runtime)
      rejectMix("an epoch hook samples a profiling runtime's counters; "
                "attach a runtime first");
    if (EpochPeriod == 0)
      rejectMix("an epoch hook needs a positive period");
    return ExecMode::Adaptive;
  }
  if (Runtime)
    return ExecMode::Profiled;
  return HasObs ? ExecMode::Observed : ExecMode::Clean;
}

RunResult Interpreter::runSelected() {
  switch (selectMode()) {
  case ExecMode::Clean:
    return runImpl<ExecMode::Clean>();
  case ExecMode::Observed:
    return runImpl<ExecMode::Observed>();
  case ExecMode::Profiled:
    return runImpl<ExecMode::Profiled>();
  case ExecMode::Trace:
    return runImpl<ExecMode::Trace>();
  case ExecMode::TimedTrace:
    return runImpl<ExecMode::TimedTrace>();
  case ExecMode::Adaptive:
    return runImpl<ExecMode::Adaptive>();
  }
  abort();
}

RunResult Interpreter::run() {
  if (!obs::interpStatsEnabled())
    return runSelected();
  // Tables are reset only between runs, so the traffic difference
  // across this run is exactly its own counter updates.
  PathTable::Traffic Before, After;
  for (unsigned F = 0; Runtime && F < Runtime->numFunctions(); ++F)
    Runtime->table(static_cast<FuncId>(F)).addTraffic(Before);
  RunResult R = runSelected();
  for (unsigned F = 0; Runtime && F < Runtime->numFunctions(); ++F)
    Runtime->table(static_cast<FuncId>(F)).addTraffic(After);
  obs::counter("interp.runs").inc();
  obs::counter("interp.instrs").inc(R.DynInstrs);
  obs::counter("interp.table.increments")
      .inc(After.Increments - Before.Increments);
  obs::counter("interp.table.probes").inc(After.Probes - Before.Probes);
  obs::counter("interp.table.collisions")
      .inc(After.Collisions - Before.Collisions);
  obs::counter("interp.table.lost").inc(After.Lost - Before.Lost);
  obs::counter("interp.table.invalid").inc(After.Invalid - Before.Invalid);
  obs::counter("interp.table.cold_checked").inc(After.Cold - Before.Cold);
  return R;
}

OpCounts ppp::deriveOpCounts(
    const Module &M, const std::vector<std::vector<int64_t>> &BlockFreqs) {
  OpCounts C{};
  for (unsigned F = 0; F < M.numFunctions(); ++F) {
    const Function &Fn = M.function(static_cast<FuncId>(F));
    for (size_t B = 0; B < Fn.Blocks.size(); ++B)
      for (const Instr &I : Fn.Blocks[B].Instrs)
        C[static_cast<uint8_t>(I.Op)] +=
            static_cast<uint64_t>(BlockFreqs[F][B]);
  }
  return C;
}

void ppp::recordOpCounts(const OpCounts &C) {
  for (unsigned Op = 0; Op < NumOpcodes; ++Op)
    obs::counter(std::string("interp.op.") +
                 opcodeName(static_cast<Opcode>(Op)))
        .inc(C[Op]);
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
