//===- interp/Interpreter.h - IR interpreter -------------------*- C++ -*-===//
///
/// \file
/// A deterministic interpreter for the register-machine IR. It stands in
/// for the paper's Alpha hardware: it executes programs, charges each
/// instruction a cost-model weight, executes profiling
/// pseudo-instructions against a ProfileRuntime, and notifies observers
/// of control-flow events (used by the edge profiler and the oracle path
/// tracer).
///
/// Global memory is initialized pseudo-randomly from a seed, so branch
/// outcomes are data-dependent yet bit-reproducible; a clean run and an
/// instrumented run of the same program follow identical control flow.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_INTERP_INTERPRETER_H
#define PPP_INTERP_INTERPRETER_H

#include "interp/CostModel.h"
#include "interp/Decoded.h"
#include "interp/ProfileRuntime.h"
#include "interp/VersionTable.h"
#include "ir/Module.h"

#include <array>
#include <cstdint>
#include <vector>

namespace ppp {

namespace trace {
class TraceRecorder;
}

/// Receives control-flow events during execution.
class ExecObserver {
public:
  virtual ~ExecObserver();

  /// A function activation begins (before its entry block runs).
  virtual void onFunctionEnter(FuncId F) { (void)F; }

  /// A function activation ends (its Ret just executed).
  virtual void onFunctionExit(FuncId F) { (void)F; }

  /// Control follows the CFG edge (\p Src, \p SuccIdx) in function \p F.
  virtual void onEdge(FuncId F, BlockId Src, unsigned SuccIdx) {
    (void)F;
    (void)Src;
    (void)SuccIdx;
  }
};

/// Invoked synchronously from the dispatch loop every N calls (the
/// adaptive controller's sampling point, DESIGN.md §12). The hook runs
/// between instructions, so it may read the attached ProfileRuntime's
/// live counters and install/revert versions in the interpreter's
/// VersionTable; swaps take effect at the next call to the function.
class EpochHook {
public:
  virtual ~EpochHook();

  /// \p DynInstrs and \p Cost are the run's totals so far.
  virtual void onEpoch(uint64_t DynInstrs, uint64_t Cost) = 0;
};

/// Outcome of one program run.
struct RunResult {
  int64_t ReturnValue = 0;
  uint64_t DynInstrs = 0;   ///< Instructions executed.
  uint64_t Cost = 0;        ///< Cost-model weighted work.
  uint64_t MemChecksum = 0; ///< FNV-1a over final memory + return value.
  bool FuelExhausted = false;
};

/// The dispatch loop's closed set of configurations, one row per
/// combination of attached objects that something actually runs. run()
/// picks the row once per call and rejects every other mix with a
/// diagnostic; each row compiles to its own loop (InterpreterLoop.inc).
/// No row counts for telemetry (see run() and deriveOpCounts()).
enum class ExecMode : uint8_t {
  Clean,         ///< Nothing attached: the production fast path.
  Observed,      ///< Observers on a clean module (edge profiler, oracle).
  Profiled,      ///< An instrumented module counting into a runtime.
  Trace,         ///< A trace recorder on a clean module.
  TimedTrace,    ///< Trace, plus cost stamps at every Ret.
  Adaptive,      ///< Profiled, plus the epoch hook at every Call.
};

/// Dynamic executions per opcode, indexed by Opcode.
using OpCounts = std::array<uint64_t, NumOpcodes>;

/// The opcode counts of a completed run of \p M that entered block B
/// of function F \p BlockFreqs[F][B] times (each entered block ran to
/// its terminator).
OpCounts deriveOpCounts(const Module &M,
                        const std::vector<std::vector<int64_t>> &BlockFreqs);

/// Adds \p C to the interp.op.<mnemonic> counters.
void recordOpCounts(const OpCounts &C);

/// Interpreter configuration.
struct InterpOptions {
  uint64_t Fuel = 2'000'000'000; ///< Max instructions before aborting.
  uint64_t MemSeed = 0x5eed;     ///< Global memory initialization seed.
  /// Decode every function at construction instead of on first call.
  /// Lazy is the default: startup cost scales with the functions a run
  /// touches (bench/interp_throughput's cold-start rows measure both).
  bool EagerDecode = false;
  CostModel Costs;
};

/// Executes a module. Reusable; each run() starts from fresh memory.
///
/// Construction binds the module to a per-function VersionTable (see
/// VersionTable.h); function bodies decode into flat code (Decoded.h)
/// on first call, and run() executes only the decoded form, resolving
/// each callee's *current* version at the call boundary. The dispatch
/// loop is compiled once per ExecMode row, so the common clean-run
/// case pays no per-event virtual dispatch; all rows produce
/// bit-identical RunResults.
class Interpreter {
public:
  explicit Interpreter(const Module &M,
                       const InterpOptions &Opts = InterpOptions());

  /// Registers an observer (not owned). Observers are invoked in
  /// registration order. They watch clean modules only: run() rejects
  /// them beside a runtime, a trace recorder or an epoch hook.
  void addObserver(ExecObserver *Obs) { Observers.push_back(Obs); }

  /// Attaches the profiling runtime an instrumented module counts into
  /// (not owned). Must cover every function with ProfCount* ops; a
  /// ProfCount*/ProfChain* op run without one aborts with a diagnostic.
  void setProfileRuntime(ProfileRuntime *RT);

  /// Attaches a trace recorder (not owned): run() selects the Trace
  /// row, which appends a branch-target packet at every CondBr/Switch
  /// (the trace collection backend's hot half; the offline decoder in
  /// src/trace reconstructs the path profile). Recording runs on a
  /// *clean* module: run() rejects it beside a runtime or an epoch
  /// hook. The recorder is one-shot: attach a fresh one per run(). A
  /// recorder with timestampsEnabled() selects the TimedTrace row,
  /// which additionally emits a cost-stamp varint at every Ret.
  void setTraceRecorder(trace::TraceRecorder *Rec) { TraceRec = Rec; }

  /// Attaches the adaptive epoch hook (not owned): run() selects the
  /// Adaptive row, which invokes \p H every \p PeriodCalls Call
  /// instructions. run() rejects a hook with no profiling runtime (the
  /// hook samples its counters) or a zero period. Pass nullptr to
  /// detach.
  void setEpochHook(EpochHook *H, uint64_t PeriodCalls) {
    Epoch = H;
    EpochPeriod = PeriodCalls;
  }

  /// The per-function code-version store. The adaptive controller
  /// installs re-optimized versions here; they take effect at the next
  /// call (and persist across run() invocations).
  VersionTable &versions() { return VT; }
  const VersionTable &versions() const { return VT; }

  /// Runs main() to completion (or until fuel runs out). With
  /// obs::interpStatsEnabled(), also reports interp.runs/interp.instrs
  /// and the attached runtime's table traffic across the run
  /// (PathTable::addTraffic()) as interp.table.*.
  RunResult run();

private:
  /// The row the attached objects select; aborts on any other mix.
  ExecMode selectMode() const;

  /// Runs the selected row's loop.
  RunResult runSelected();

  template <ExecMode M> RunResult runImpl();

  VersionTable VT;
  /// Address-space size: Module::MemWords rounded up to a power of two
  /// so the load/store address mask is always exact.
  uint64_t MemWords = 1;
  uint64_t AddrMask = 0;
  FuncId MainId = 0;
  InterpOptions Opts;
  ProfileRuntime *Runtime = nullptr;
  trace::TraceRecorder *TraceRec = nullptr;
  EpochHook *Epoch = nullptr;
  uint64_t EpochPeriod = 0;
  std::vector<ExecObserver *> Observers;
};

} // namespace ppp

#endif // PPP_INTERP_INTERPRETER_H
