//===- pass/Passes.cpp - Concrete pipeline passes ---------------------------===//

#include "pass/Passes.h"

#include "ir/Verifier.h"
#include "pass/AnalysisManager.h"
#include "profile/Collectors.h"
#include "support/Format.h"

using namespace ppp;

PreservedAnalyses ProfilePass::run(Module &M, FunctionAnalysisManager &FAM,
                                   PassContext &Ctx) {
  InterpOptions IO;
  IO.Costs = UseBenchCosts ? Ctx.BenchCosts : Ctx.StdCosts;
  CleanProfile P = profileClean(M, IO);
  if (P.Res.FuelExhausted) {
    Ctx.Error = formatString("%s did not terminate", M.Name.c_str());
    return PreservedAnalyses::all();
  }
  Ctx.Profiles.push_back(std::move(P));
  // The deque never shrinks, so the address stays valid pipeline-wide.
  FAM.setAdvice(&Ctx.Profiles.back().EP);
  return PreservedAnalyses::all();
}

PreservedAnalyses InlinerPass::run(Module &M, FunctionAnalysisManager &FAM,
                                   PassContext &Ctx) {
  const EdgeProfile *Advice = FAM.advice();
  if (!Advice) {
    Ctx.Error = "inline pass requires a prior profile pass";
    return PreservedAnalyses::all();
  }
  if (!Ctx.AllowInlining) {
    // Count-only: dynamic call stats from a throwaway copy.
    Module Tmp = M;
    InlinerOptions IO = Ctx.InlineOpts;
    IO.MaxSites = 0;
    Ctx.Inline = runInliner(Tmp, *Advice, IO);
    return PreservedAnalyses::all();
  }
  Ctx.Inline = runInliner(M, *Advice, Ctx.InlineOpts);
  return PreservedAnalyses::allExceptFunctions(Ctx.Inline.ModifiedFunctions);
}

PreservedAnalyses UnrollerPass::run(Module &M, FunctionAnalysisManager &FAM,
                                    PassContext &Ctx) {
  const EdgeProfile *Advice = FAM.advice();
  if (!Advice) {
    Ctx.Error = "unroll pass requires a prior profile pass";
    return PreservedAnalyses::all();
  }
  Ctx.Unroll = runUnroller(M, *Advice, Ctx.UnrollOpts);
  return PreservedAnalyses::allExceptFunctions(Ctx.Unroll.ModifiedFunctions);
}

PreservedAnalyses VerifierPass::run(Module &M, FunctionAnalysisManager &,
                                    PassContext &Ctx) {
  if (std::string E = verifyModule(M); !E.empty())
    Ctx.Error = formatString("expanded %s: %s", M.Name.c_str(), E.c_str());
  return PreservedAnalyses::all();
}

PreservedAnalyses InstrumentPass::run(Module &M, FunctionAnalysisManager &FAM,
                                      PassContext &Ctx) {
  if (Ctx.Profiles.empty()) {
    Ctx.Error = formatString("%s requires a prior profile pass",
                             name().c_str());
    return PreservedAnalyses::all();
  }
  Ctx.Instr = std::make_unique<InstrumentationResult>(
      instrumentModule(M, Ctx.Profiles.back().EP, Opts, FAM));
  return PreservedAnalyses::all();
}
