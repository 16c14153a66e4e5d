//===- examples/path_guided_optimizer.cpp - Using path profiles ---------------===//
///
/// The payoff the paper is building toward: a dynamic optimizer that
/// consumes a PPP path profile. This example forms a superblock-style
/// trace from the hottest path -- tail-duplicating every side-entered
/// block on the path into its on-path predecessor -- and measures the
/// dynamic cost saved (straight-line code, no jumps between the merged
/// blocks).
///
/// An edge profile alone cannot do this safely: it does not know which
/// *path* is hot, only which edges are (Sec. 1 and 2 of the paper).
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "opt/TraceFormation.h"
#include "ir/Verifier.h"
#include "metrics/Metrics.h"
#include "pathprof/EstimatedProfile.h"
#include "profile/Collectors.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdio>

using namespace ppp;



int main() {
  WorkloadParams P;
  P.Seed = 0xfeed;
  P.Name = "trace-demo";
  P.NumFunctions = 6;
  P.IfPct = 30;
  P.SkewedIfPct = 85;
  P.SkewMin = 93;
  P.SkewMax = 99;
  P.MainLoopTrips = 600;
  Module M = generateWorkload(P);

  // Profile with PPP.
  CleanProfile Clean = profileClean(M);
  const RunResult &Base = Clean.Res;
  const EdgeProfile &EP = Clean.EP;
  InstrumentationResult IR = instrumentModule(M, EP, ProfilerOptions::ppp());
  ProfileRuntime RT = IR.makeRuntime();
  Interpreter I1(IR.Instrumented);
  I1.setProfileRuntime(&RT);
  I1.run();
  ProfilerRunData Data = buildEstimatedProfile(M, EP, IR, RT);

  // Pick the hottest measured path of each function and form traces
  // (the library pass; see src/opt/TraceFormation.h).
  Module Optimized = M;
  TraceStats Stats =
      formTracesFromPathProfile(Optimized, Data.Estimated);
  unsigned Traces = Stats.Traces, Duplicated = Stats.BlocksDuplicated;
  if (std::string E = verifyModule(Optimized); !E.empty()) {
    fprintf(stderr, "trace formation broke the module: %s\n", E.c_str());
    return 1;
  }

  RunResult Opt = Interpreter(Optimized).run();
  bool Same = Opt.ReturnValue == Base.ReturnValue &&
              Opt.MemChecksum == Base.MemChecksum;
  printf("formed %u traces (%u blocks tail-duplicated)\n", Traces,
         Duplicated);
  printf("semantics preserved: %s\n", Same ? "yes" : "NO (bug!)");
  printf("dynamic cost: %llu -> %llu  (%.2f%% faster)\n",
         (unsigned long long)Base.Cost, (unsigned long long)Opt.Cost,
         100.0 * ((double)Base.Cost - (double)Opt.Cost) /
             (double)Base.Cost);
  printf("\nThis is the \"staged dynamic optimization\" loop of the "
         "paper's summary:\nprofile continuously at ~5%% overhead, then "
         "spend the profile on path-based\noptimizations like trace "
         "formation.\n");
  return Same ? 0 : 1;
}
