//===- tools/fuzz_ppp.cpp - Differential fuzzer CLI --------------------------===//
///
/// \file
/// Command-line driver for the fuzz subsystem (src/fuzz):
///
///   fuzz_ppp [--seed=N] [--count=N | --minutes=N] [shape flags]
///            [--fuel=N] [--shrink] [--fault] [--quiet]
///
/// Modes:
///  - corpus (default): run `--count` adversarial modules starting at
///    `--seed`, each through the full differential invariant battery
///    (oracle vs PP/TPP/PPP, round trips, metric bounds).
///  - `--minutes=N`: keep fuzzing fresh seeds until the wall-clock
///    budget runs out (long mode for soak runs).
///  - `--fault`: additionally fault-inject the binary frames (module /
///    edge profile / path profile / trace recording / timed trace
///    recording) of every 16th corpus module, plus the hand-crafted
///    hostile module frames.
///
/// On a failing case, `--shrink` walks the shape knobs down while the
/// failure reproduces and prints a reproducer command line.
///
/// Exit code 0 iff every case passed. A summary of the fuzz.* obs
/// counters is printed at the end (machine-greppable "FUZZ ..." lines).
///
//===----------------------------------------------------------------------===//

#include "fuzz/AdversarialGen.h"
#include "fuzz/FaultInject.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Invariants.h"
#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "profile/BinaryIO.h"
#include "profile/Collectors.h"
#include "support/Rng.h"
#include "trace/PathTiming.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceIO.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace ppp;
using namespace ppp::fuzz;

namespace {

struct CliOptions {
  uint64_t Seed = 1;
  uint64_t Count = 200;
  unsigned Minutes = 0; ///< 0 = use Count.
  uint64_t Fuel = 50'000'000;
  FuzzShape Shape;
  bool Shrink = false;
  bool Fault = false;
  bool Quiet = false;
};

bool parseFlag(const char *Arg, const char *Name, uint64_t &Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = std::strtoull(Arg + N + 1, nullptr, 10);
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_ppp [--seed=N] [--count=N] [--minutes=N] [--fuel=N]\n"
      "                [--funcs=N] [--blocks=N] [--arms=N] [--gen-fuel=N]\n"
      "                [--trips=N] [--diamond=0|1] [--dead=0|1] "
      "[--kblow=0|1]\n"
      "                [--shrink] [--fault] [--quiet]\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    uint64_t V = 0;
    if (parseFlag(A, "--seed", O.Seed) || parseFlag(A, "--count", O.Count) ||
        parseFlag(A, "--fuel", O.Fuel)) {
      continue;
    } else if (parseFlag(A, "--minutes", V)) {
      O.Minutes = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--funcs", V)) {
      O.Shape.NumFunctions = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--blocks", V)) {
      O.Shape.MaxBlocks = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--arms", V)) {
      O.Shape.MaxSwitchArms = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--gen-fuel", V)) {
      O.Shape.FuelPerCall = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--trips", V)) {
      O.Shape.MainTrips = static_cast<unsigned>(V);
    } else if (parseFlag(A, "--diamond", V)) {
      O.Shape.WithDiamondChain = V != 0;
    } else if (parseFlag(A, "--dead", V)) {
      O.Shape.WithDeadBlocks = V != 0;
    } else if (parseFlag(A, "--kblow", V)) {
      O.Shape.WithKiterBlowup = V != 0;
    } else if (std::strcmp(A, "--shrink") == 0) {
      O.Shrink = true;
    } else if (std::strcmp(A, "--fault") == 0) {
      O.Fault = true;
    } else if (std::strcmp(A, "--quiet") == 0) {
      O.Quiet = true;
    } else {
      usage();
      return false;
    }
  }
  if (O.Shape.MaxBlocks < 1 || O.Shape.MaxSwitchArms < 2 ||
      O.Shape.FuelPerCall < 2) {
    std::fprintf(stderr, "fuzz_ppp: shape out of range (blocks >= 1, "
                         "arms >= 2, gen-fuel >= 2)\n");
    return false;
  }
  return true;
}

/// Fault-injects every framed format derived from (Seed, Shape).
/// Returns the number of contract violations (0 = all mutants handled
/// cleanly).
unsigned runFaultPass(uint64_t Seed, const FuzzShape &Shape, uint64_t Fuel,
                      bool Quiet) {
  Module M = generateAdversarialModule(Seed, Shape);
  InterpOptions IO;
  IO.Fuel = Fuel;
  CleanProfile Clean = profileClean(M, IO);
  if (Clean.Res.FuelExhausted)
    return 1;
  const EdgeProfile &EP = Clean.EP;
  const PathProfile &Oracle = Clean.Oracle;

  Rng R(Seed ^ 0xfa017ULL);
  unsigned Violations = 0;
  auto Run = [&](const char *What,
                 const std::vector<FrameMutation> &Mutants,
                 const std::function<bool(const std::string &,
                                          std::string &)> &Reader) {
    FaultStats S = runReaderFaultCheck(Mutants, Reader);
    obs::counter("fuzz.fault.cases").inc(S.Cases);
    obs::counter("fuzz.fault.rejected").inc(S.Rejected);
    obs::counter("fuzz.fault.problems").inc(S.Problems.size());
    Violations += static_cast<unsigned>(S.Problems.size());
    for (const std::string &P : S.Problems)
      std::fprintf(stderr, "FUZZ FAULT %s: %s\n", What, P.c_str());
    if (!Quiet)
      std::printf("FUZZ fault %-12s cases=%u rejected=%u accepted=%u\n",
                  What, S.Cases, S.Rejected, S.Accepted);
  };

  // Module frames: random mutants + the hostile handcrafted headers.
  std::string ModBlob = writeModuleBinary(M);
  std::vector<FrameMutation> ModMutants = mutateFrame(ModBlob, R, 8, 8, 8);
  for (FrameMutation &H : hostileModuleFrames())
    ModMutants.push_back(std::move(H));
  Run("module", ModMutants, [](const std::string &Blob, std::string &Err) {
    Module Out;
    return readModuleBinary(Blob, Out, Err);
  });

  std::string EPBlob = writeEdgeProfileBinary(M, EP);
  Run("edgeprofile", mutateFrame(EPBlob, R, 6, 6, 6),
      [&M](const std::string &Blob, std::string &Err) {
        EdgeProfile Out;
        return readEdgeProfileBinary(M, Blob, Out, Err);
      });

  std::string PPBlob = writePathProfileBinary(M, Oracle);
  Run("pathprofile", mutateFrame(PPBlob, R, 6, 6, 6),
      [&M](const std::string &Blob, std::string &Err) {
        PathProfile Out(0);
        return readPathProfileBinary(M, Blob, Out, Err);
      });

  // Trace recording frames: small chunks so the blob carries many
  // chunk frames for truncation/flip targets. The acceptance contract
  // is reject-or-stay-consistent: a mutant must fail the frame reader
  // or the decoder's stream validation (both with a clean error), or
  // decode into a runtime whose totals the decoder itself validated.
  trace::TraceRecorder TRec(256);
  {
    Interpreter I(M, IO);
    I.setTraceRecorder(&TRec);
    if (I.run().FuelExhausted)
      return Violations + 1;
  }
  trace::TraceRecording TraceRec = TRec.takeRecording();
  InstrumentationResult TraceIR =
      instrumentModule(M, EP, ProfilerOptions::trace());
  trace::TraceDecoder Dec(M, TraceIR);
  std::string TraceBlob = trace::writeTraceBinary(TraceRec);
  Run("trace", mutateFrame(TraceBlob, R, 6, 6, 6),
      [&](const std::string &Blob, std::string &Err) {
        trace::TraceRecording Out;
        if (!trace::readTraceBinary(Blob, Out, Err))
          return false;
        ProfileRuntime RT = TraceIR.makeRuntime();
        trace::DecodeStats DS;
        return Dec.decode(Out, RT, DS, Err);
      });

  // Timed trace frames: the same reject-or-stay-consistent contract
  // with cost stamps in the stream. Mutants attack the new surface --
  // the Timed header flag, the StampEvents total, the cursor's cost
  // bases, and the stamp varints themselves (flips turn deltas
  // non-monotonic or misalign the positional stamp stream). A mutant
  // the decoder accepts must still satisfy the attribution side's
  // conservation law; one that decodes cleanly but leaks cost is a
  // contract violation reported like any other.
  trace::TraceRecorder TimedRec(256, /*Timestamps=*/true);
  {
    Interpreter I(M, IO);
    I.setTraceRecorder(&TimedRec);
    if (I.run().FuelExhausted)
      return Violations + 1;
  }
  std::string TimedBlob =
      trace::writeTraceBinary(TimedRec.takeRecording());
  unsigned TimedLeaks = 0;
  Run("timedtrace", mutateFrame(TimedBlob, R, 6, 6, 6),
      [&](const std::string &Blob, std::string &Err) {
        trace::TraceRecording Out;
        if (!trace::readTraceBinary(Blob, Out, Err))
          return false;
        ProfileRuntime RT = TraceIR.makeRuntime();
        trace::DecodeStats DS;
        trace::PathTimingProfile Timing;
        if (!Dec.decode(Out, RT, DS, Err, Out.Timed ? &Timing : nullptr))
          return false;
        if (Out.Timed && Timing.attributedCost() +
                                 Timing.unattributedCost() !=
                             Timing.totalCost())
          ++TimedLeaks;
        return true;
      });
  if (TimedLeaks > 0) {
    Violations += TimedLeaks;
    std::fprintf(stderr,
                 "FUZZ FAULT timedtrace: %u accepted mutants violated "
                 "cost conservation\n",
                 TimedLeaks);
  }

  return Violations;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::minutes(O.Minutes);
  uint64_t Failures = 0, FaultViolations = 0, Cases = 0;

  for (uint64_t I = 0;; ++I) {
    if (O.Minutes > 0) {
      if (std::chrono::steady_clock::now() >= Deadline)
        break;
    } else if (I >= O.Count) {
      break;
    }
    uint64_t Seed = O.Seed + I;
    FuzzCaseResult R = runFuzzCase(Seed, O.Shape, O.Fuel);
    ++Cases;
    if (!R.ok()) {
      ++Failures;
      std::fprintf(stderr, "FUZZ FAIL seed=%llu %s (%u checks)\n%s",
                   (unsigned long long)Seed, O.Shape.describe().c_str(),
                   R.Report.ChecksRun, R.Report.summary().c_str());
      if (O.Shrink) {
        ShrinkResult S = shrinkFailure(Seed, O.Shape, O.Fuel);
        std::fprintf(stderr,
                     "FUZZ SHRUNK to %s after %u attempts\n"
                     "FUZZ REPRODUCE: %s\n",
                     S.Minimal.Shape.describe().c_str(), S.Attempts,
                     reproducerCommand(Seed, S.Minimal.Shape).c_str());
      } else {
        std::fprintf(stderr, "FUZZ REPRODUCE: %s\n",
                     reproducerCommand(Seed, O.Shape).c_str());
      }
    }
    if (O.Fault && (I % 16 == 0))
      FaultViolations += runFaultPass(Seed, O.Shape, O.Fuel, O.Quiet);
  }

  std::printf("FUZZ cases=%llu failures=%llu fault_violations=%llu "
              "checks=%llu\n",
              (unsigned long long)Cases, (unsigned long long)Failures,
              (unsigned long long)FaultViolations,
              (unsigned long long)obs::Registry::instance()
                  .snapshot()
                  .counter("fuzz.checks"));
  return (Failures == 0 && FaultViolations == 0) ? 0 : 1;
}
