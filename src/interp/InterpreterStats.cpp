//===- interp/InterpreterStats.cpp - Telemetry dispatch loop ---------------===//
///
/// The telemetry rows of Interpreter::runImpl<> (CleanStats,
/// ObservedStats, ProfiledStats) and the once-per-run registry flush
/// they call. Kept out of Interpreter.cpp
/// on purpose: the clean fast path's code generation must not change
/// when telemetry is compiled in (see interp/InterpreterLoop.inc).
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Obs.h"

#include <string>

using namespace ppp;

namespace ppp {
namespace interp_detail {

/// Flushes one telemetry-enabled run's locally accumulated statistics
/// into the obs registry. Handles are resolved once and cached; the
/// dispatch loop itself only touches stack locals.
void flushInterpStats(const uint64_t (&OpCount)[NumOpcodes],
                      uint64_t DynInstrs, const PathProbeStats &PS) {
  struct Handles {
    obs::Counter *Runs;
    obs::Counter *Instrs;
    obs::Counter *Ops[NumOpcodes];
    obs::Counter *Increments;
    obs::Counter *Probes;
    obs::Counter *Collisions;
    obs::Counter *Lost;
    obs::Counter *Invalid;
    obs::Counter *Cold;
    Handles() {
      Runs = &obs::counter("interp.runs");
      Instrs = &obs::counter("interp.instrs");
      for (unsigned Op = 0; Op < NumOpcodes; ++Op)
        Ops[Op] = &obs::counter(std::string("interp.op.") +
                                opcodeName(static_cast<Opcode>(Op)));
      Increments = &obs::counter("interp.table.increments");
      Probes = &obs::counter("interp.table.probes");
      Collisions = &obs::counter("interp.table.collisions");
      Lost = &obs::counter("interp.table.lost");
      Invalid = &obs::counter("interp.table.invalid");
      Cold = &obs::counter("interp.table.cold_checked");
    }
  };
  static Handles H;
  H.Runs->inc();
  H.Instrs->inc(DynInstrs);
  for (unsigned Op = 0; Op < NumOpcodes; ++Op)
    if (OpCount[Op])
      H.Ops[Op]->inc(OpCount[Op]);
  if (PS.Increments)
    H.Increments->inc(PS.Increments);
  if (PS.Probes)
    H.Probes->inc(PS.Probes);
  if (PS.Collisions)
    H.Collisions->inc(PS.Collisions);
  if (PS.Lost)
    H.Lost->inc(PS.Lost);
  if (PS.Invalid)
    H.Invalid->inc(PS.Invalid);
  if (PS.Cold)
    H.Cold->inc(PS.Cold);
}

} // namespace interp_detail
} // namespace ppp

#include "interp/InterpreterLoop.inc"

template RunResult Interpreter::runImpl<ExecMode::CleanStats>();
template RunResult Interpreter::runImpl<ExecMode::ObservedStats>();
template RunResult Interpreter::runImpl<ExecMode::ProfiledStats>();
