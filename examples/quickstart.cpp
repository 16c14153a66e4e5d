//===- examples/quickstart.cpp - Five-minute tour of the API ------------------===//
///
/// Builds a small program with IRBuilder, collects an edge profile,
/// instruments it with PPP, runs it, and prints the hot paths.
///
/// Build and run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pathprof/EstimatedProfile.h"
#include "pathprof/Profilers.h"
#include "profile/Collectors.h"

#include <cstdio>

using namespace ppp;

/// A function with three nested decisions inside a hot loop, biased so
/// two of the eight paths dominate.
static Module buildDemoProgram() {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  RegId I = B.emitConst(0);
  RegId N = B.emitConst(10000);
  RegId State = B.emitConst(12345);

  BlockId Loop = B.newBlock();
  BlockId Exit = B.newBlock();
  B.emitBr(Loop);
  B.setInsertPoint(Loop);

  // Evolve a pseudo-random state; branch on its bits with bias.
  B.emitMulImm(State, 6364136223846793005LL, State);
  B.emitAddImm(State, 1442695040888963407LL, State);
  RegId C33 = B.emitConst(33);
  RegId Hi = B.emitBinary(Opcode::Shr, State, C33);
  RegId C100 = B.emitConst(100);
  RegId Mod = B.emitBinary(Opcode::RemU, Hi, C100);

  // First decision: 70% hot (warm enough that an edge profile cannot
  // pin down the paths).
  RegId Cut70 = B.emitConst(70);
  RegId Hot1 = B.emitBinary(Opcode::CmpLt, Mod, Cut70);
  BlockId T1 = B.newBlock(), F1 = B.newBlock(), J1 = B.newBlock();
  B.emitCondBr(Hot1, T1, F1);
  B.setInsertPoint(T1);
  B.emitAddImm(State, 1, State);
  B.emitBr(J1);
  B.setInsertPoint(F1);
  B.emitMulImm(State, 3, State);
  B.emitBr(J1);
  B.setInsertPoint(J1);

  // Second decision: 50/50.
  RegId Two = B.emitConst(2);
  RegId Bit = B.emitBinary(Opcode::RemU, Hi, Two);
  BlockId T2 = B.newBlock(), F2 = B.newBlock(), J2 = B.newBlock();
  B.emitCondBr(Bit, T2, F2);
  B.setInsertPoint(T2);
  B.emitAddImm(State, 7, State);
  B.emitBr(J2);
  B.setInsertPoint(F2);
  B.emitAddImm(State, 13, State);
  B.emitBr(J2);
  B.setInsertPoint(J2);

  // Third decision: another independent coin flip.
  RegId C7 = B.emitConst(7);
  RegId Hi2 = B.emitBinary(Opcode::Shr, State, C7);
  RegId Bit2 = B.emitBinary(Opcode::RemU, Hi2, Two);
  BlockId T3 = B.newBlock(), F3 = B.newBlock(), J3 = B.newBlock();
  B.emitCondBr(Bit2, T3, F3);
  B.setInsertPoint(T3);
  B.emitAddImm(State, 3, State);
  B.emitBr(J3);
  B.setInsertPoint(F3);
  B.emitAddImm(State, 5, State);
  B.emitBr(J3);
  B.setInsertPoint(J3);

  B.emitAddImm(I, 1, I);
  RegId More = B.emitBinary(Opcode::CmpLt, I, N);
  B.emitCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  B.emitRet(State);
  B.endFunction();
  return M;
}

int main() {
  Module M = buildDemoProgram();
  if (std::string E = verifyModule(M); !E.empty()) {
    fprintf(stderr, "verification failed: %s\n", E.c_str());
    return 1;
  }
  printf("== The program ==\n%s\n", printFunction(M.function(0)).c_str());

  // 1. Collect the (cheap) edge profile the instrumenter needs.
  CleanProfile Clean = profileClean(M);
  const RunResult &Base = Clean.Res;
  const EdgeProfile &EP = Clean.EP;

  // 2. Instrument a clone with PPP.
  InstrumentationResult IR = instrumentModule(M, EP, ProfilerOptions::ppp());
  const FunctionPlan &Plan = IR.Plans[0];
  printf("== PPP instrumentation plan ==\n");
  if (!Plan.Instrumented) {
    printf("routine skipped (reason %d): the edge profile already covers "
           "%.0f%% of its flow\n\n",
           (int)Plan.Skip, 100.0 * Plan.EdgeCoverage);
  } else {
    printf("edge coverage %.0f%% (< 75%%, so PPP instruments); possible "
           "paths N = %llu,\ntable = %s, cold edges = %zu, static prof "
           "ops = %llu\n\n",
           100.0 * Plan.EdgeCoverage, (unsigned long long)Plan.NumPaths,
           Plan.TableKind == PathTable::Kind::Hash ? "hash" : "array",
           Plan.ColdEdges.size(), (unsigned long long)Plan.StaticOps);
  }

  // 3. Run the instrumented program against fresh counters.
  ProfileRuntime RT = IR.makeRuntime();
  Interpreter Instr(IR.Instrumented);
  Instr.setProfileRuntime(&RT);
  RunResult WithProf = Instr.run();
  printf("overhead: %.2f%% (base cost %llu, instrumented %llu)\n\n",
         100.0 * (double)(WithProf.Cost - Base.Cost) / (double)Base.Cost,
         (unsigned long long)Base.Cost, (unsigned long long)WithProf.Cost);

  // 4. Decode the counters into concrete hot paths.
  ProfilerRunData Data = buildEstimatedProfile(M, EP, IR, RT);
  std::vector<const PathRecord *> Paths;
  for (const PathRecord &R : Data.Estimated.Funcs[0].Paths)
    Paths.push_back(&R);
  std::sort(Paths.begin(), Paths.end(),
            [](const PathRecord *A, const PathRecord *B) {
              return A->Freq > B->Freq;
            });
  printf("== Hot paths (top 5 of %zu) ==\n", Paths.size());
  CfgView Cfg(M.function(0));
  for (size_t K = 0; K < Paths.size() && K < 5; ++K) {
    const PathRecord *R = Paths[K];
    printf("freq %8llu  branches %u  blocks:",
           (unsigned long long)R->Freq, R->Branches);
    for (BlockId Blk : R->Key.blocks(Cfg))
      printf(" b%d", Blk);
    printf("%s\n", R->Key.TermCfgEdgeId >= 0 ? " (ends at back edge)"
                                             : " (returns)");
  }
  return 0;
}
