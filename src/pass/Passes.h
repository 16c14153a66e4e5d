//===- pass/Passes.h - Concrete pipeline passes ----------------*- C++ -*-===//
///
/// \file
/// The passes a pipeline spec can name (pass/Pipeline.h). Together they
/// cover the preparation pipeline (profile / inline / unroll / verify)
/// and instrumentation (instrument<spec>); each is a thin adapter from
/// the ModulePass protocol onto the existing transform entry points,
/// reporting precise PreservedAnalyses so the analysis manager keeps
/// caches for untouched functions.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PASS_PASSES_H
#define PPP_PASS_PASSES_H

#include "pass/Pass.h"

#include <string>
#include <utility>

namespace ppp {

/// Runs the module clean (profileClean: edge profiler and oracle path
/// tracer attached), appends the result to Ctx.Profiles, and rebinds
/// the analysis manager's advice to the new edge profile. "profile"
/// runs under Ctx.StdCosts, "profile<bench>" under Ctx.BenchCosts (the
/// final self-advice run of the preparation pipeline).
class ProfilePass : public ModulePass {
public:
  explicit ProfilePass(bool UseBenchCosts) : UseBenchCosts(UseBenchCosts) {}
  std::string name() const override {
    return UseBenchCosts ? "profile<bench>" : "profile";
  }
  PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                        PassContext &Ctx) override;

private:
  bool UseBenchCosts;
};

/// Profile-guided inlining on the current advice (Sec. 7.3). With
/// Ctx.AllowInlining off it still runs the inliner on a throwaway copy
/// so Ctx.Inline carries the dynamic-call counts (Table 1's "% calls
/// inlined" column) without touching the module. Preserves every
/// function the inliner did not splice into.
class InlinerPass : public ModulePass {
public:
  std::string name() const override { return "inline"; }
  PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                        PassContext &Ctx) override;
};

/// Profile-guided inner-loop unrolling on the current advice
/// (Sec. 7.3). Preserves every function without an unrolled loop.
class UnrollerPass : public ModulePass {
public:
  std::string name() const override { return "unroll"; }
  PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                        PassContext &Ctx) override;
};

/// Structural verification checkpoint; fails the pipeline with the
/// verifier's diagnosis.
class VerifierPass : public ModulePass {
public:
  std::string name() const override { return "verify"; }
  PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                        PassContext &Ctx) override;
};

/// Path-profiling instrumentation: instrumentModule() with the options
/// of a profiler spec, against the newest profile snapshot as advice.
/// The result lands in Ctx.Instr; the pipeline module itself is not
/// modified (instrumentation lowers into a clone).
class InstrumentPass : public ModulePass {
public:
  InstrumentPass(std::string Spec, ProfilerOptions Opts)
      : Spec(std::move(Spec)), Opts(std::move(Opts)) {}
  std::string name() const override { return "instrument<" + Spec + ">"; }
  PreservedAnalyses run(Module &M, FunctionAnalysisManager &FAM,
                        PassContext &Ctx) override;

private:
  std::string Spec; ///< The profiler spec as written (round-trips).
  ProfilerOptions Opts;
};

} // namespace ppp

#endif // PPP_PASS_PASSES_H
