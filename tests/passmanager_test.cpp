//===- tests/passmanager_test.cpp - Pass pipeline layer tests ---------------===//
///
/// Covers src/pass/: the FunctionAnalysisManager cache (hit/compute
/// accounting, invalidation, advice rebinding), PreservedAnalyses
/// application by the ModulePassManager, pipeline/profiler spec parsing
/// and round-tripping, and the equivalence of analysis-manager-served
/// instrumentation with the self-contained overload across all four
/// profiler presets.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pass/AnalysisManager.h"
#include "pass/PassManager.h"
#include "pass/Passes.h"
#include "pass/Pipeline.h"
#include "profile/BinaryIO.h"

#include "gtest/gtest.h"

using namespace ppp;
using namespace ppp::testutil;

namespace {

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, DefaultPrepareSpecRoundTrips) {
  ModulePassManager MPM;
  std::string Error;
  ASSERT_TRUE(parsePipeline(DefaultPreparePipelineSpec, MPM, Error)) << Error;
  EXPECT_EQ(MPM.size(), 6u);
  EXPECT_EQ(MPM.printPipeline(), DefaultPreparePipelineSpec);
}

TEST(PipelineSpec, InstrumentSpecRoundTrips) {
  ModulePassManager MPM;
  std::string Error;
  ASSERT_TRUE(
      parsePipeline("inline,unroll,instrument<ppp;-sac;+fp>", MPM, Error))
      << Error;
  EXPECT_EQ(MPM.printPipeline(), "inline,unroll,instrument<ppp;-sac;+fp>");
}

TEST(PipelineSpec, RejectsMalformedSpecs) {
  ModulePassManager MPM;
  std::string Error;
  EXPECT_FALSE(parsePipeline("", MPM, Error));
  EXPECT_NE(Error.find("empty pipeline"), std::string::npos) << Error;

  EXPECT_FALSE(parsePipeline("profile,optimize", MPM, Error));
  EXPECT_NE(Error.find("unknown pass 'optimize'"), std::string::npos)
      << Error;

  EXPECT_FALSE(parsePipeline("instrument<nope>", MPM, Error));
  EXPECT_NE(Error.find("unknown profiler preset 'nope'"), std::string::npos)
      << Error;
}

TEST(ProfilerSpec, PresetsMatchFactories) {
  ProfilerOptions O;
  std::string Error;
  ASSERT_TRUE(parseProfilerSpec("ppp", O, Error)) << Error;
  EXPECT_EQ(O.Name, "ppp");
  EXPECT_TRUE(O.SmartNumbering);
  EXPECT_TRUE(O.SelfAdjust);
  EXPECT_TRUE(O.LowCoverageGate);
  EXPECT_EQ(O.Push, PushMode::IgnoreCold);

  ASSERT_TRUE(parseProfilerSpec("tpp-checked", O, Error)) << Error;
  EXPECT_EQ(O.Name, "tpp-checked");
  EXPECT_EQ(O.Poison, PoisonStyle::Checked);
  EXPECT_TRUE(O.ColdOnlyToAvoidHash);
}

TEST(ProfilerSpec, TogglesMatchAblationEdits) {
  // "ppp;-sac" must equal the Figure 13 leave-one-out edit.
  ProfilerOptions O = mustParseProfilerSpec("ppp;-sac");
  EXPECT_EQ(O.Name, "ppp-sac");
  EXPECT_FALSE(O.SelfAdjust);
  EXPECT_FALSE(O.GlobalColdCriterion);
  EXPECT_FALSE(O.ColdOnlyToAvoidHash); // ppp's value, untouched on disable.

  // "tpp;+sac" must equal the one-at-a-time edit (including lifting the
  // avoid-hash gate so the global criterion has teeth).
  O = mustParseProfilerSpec("tpp;+sac");
  EXPECT_EQ(O.Name, "tpp+sac");
  EXPECT_TRUE(O.SelfAdjust);
  EXPECT_TRUE(O.GlobalColdCriterion);
  EXPECT_FALSE(O.ColdOnlyToAvoidHash);

  O = mustParseProfilerSpec("tpp;+fp");
  EXPECT_FALSE(O.ColdOnlyToAvoidHash);
  O = mustParseProfilerSpec("ppp;-fp");
  EXPECT_TRUE(O.ColdOnlyToAvoidHash);

  O = mustParseProfilerSpec("ppp;-push;-spn;-lc");
  EXPECT_EQ(O.Name, "ppp-push-spn-lc");
  EXPECT_EQ(O.Push, PushMode::Blocked);
  EXPECT_FALSE(O.SmartNumbering);
  EXPECT_FALSE(O.LowCoverageGate);
}

TEST(ProfilerSpec, RejectsMalformedSpecs) {
  ProfilerOptions O;
  std::string Error;
  EXPECT_FALSE(parseProfilerSpec("ppp;sac", O, Error));
  EXPECT_NE(Error.find("must be +tech or -tech"), std::string::npos) << Error;
  EXPECT_FALSE(parseProfilerSpec("ppp;+warp", O, Error));
  EXPECT_NE(Error.find("unknown technique 'warp'"), std::string::npos)
      << Error;
}

//===----------------------------------------------------------------------===//
// FunctionAnalysisManager
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, CachesAndCounts) {
  Module M = smallWorkload(11);
  FunctionAnalysisManager FAM(M);

  std::shared_ptr<const CfgView> C1 = FAM.cfg(0);
  std::shared_ptr<const CfgView> C2 = FAM.cfg(0);
  EXPECT_EQ(C1.get(), C2.get());
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).Computed, 1u);
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).CacheHits, 1u);

  // loops() pulls cfg() internally: another hit, no recompute.
  FAM.loops(0);
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).Computed, 1u);
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).CacheHits, 2u);
  EXPECT_EQ(FAM.stats(AnalysisKind::Loops).Computed, 1u);
}

TEST(AnalysisManager, InvalidationDropsOnlyTargetFunction) {
  Module M = smallWorkload(12);
  ASSERT_GE(M.numFunctions(), 2u);
  FunctionAnalysisManager FAM(M);
  std::shared_ptr<const CfgView> C0 = FAM.cfg(0);
  std::shared_ptr<const CfgView> C1 = FAM.cfg(1);

  FAM.invalidate(0);
  EXPECT_EQ(FAM.invalidations(), 1u);
  EXPECT_NE(FAM.cfg(0).get(), C0.get()); // Recomputed.
  EXPECT_EQ(FAM.cfg(1).get(), C1.get()); // Untouched.
  // The shared_ptr we held across invalidation stays alive and valid.
  EXPECT_GT(C0->numBlocks(), 0u);
}

TEST(AnalysisManager, AdviceRebindInvalidatesOnlyProfiledDags) {
  Module M = smallWorkload(13);
  ProfiledRun Clean = profileModule(M);
  FunctionAnalysisManager FAM(M, &Clean.EP);

  std::shared_ptr<const CfgView> C = FAM.cfg(0);
  std::shared_ptr<const ProfiledDag> D = FAM.profiledDag(0);
  EXPECT_GT(D->Num.NumPaths, 0u);

  // Same object: no-op, cache stands.
  FAM.setAdvice(&Clean.EP);
  EXPECT_EQ(FAM.profiledDag(0).get(), D.get());
  EXPECT_EQ(FAM.stats(AnalysisKind::ProfiledDag).CacheHits, 1u);

  // Different object: profiled DAGs drop, structural analyses stand.
  EdgeProfile Copy = Clean.EP;
  FAM.setAdvice(&Copy);
  EXPECT_EQ(FAM.cfg(0).get(), C.get());
  std::shared_ptr<const ProfiledDag> D2 = FAM.profiledDag(0);
  EXPECT_NE(D2.get(), D.get());
  // Identical profile content: identical facts.
  EXPECT_EQ(D2->Num.NumPaths, D->Num.NumPaths);
  EXPECT_DOUBLE_EQ(D2->BranchCoverage, D->BranchCoverage);
}

//===----------------------------------------------------------------------===//
// ModulePassManager
//===----------------------------------------------------------------------===//

/// Reports a fixed PreservedAnalyses without touching anything.
class FakeTransformPass : public ModulePass {
public:
  explicit FakeTransformPass(PreservedAnalyses PA) : PA(PA) {}
  std::string name() const override { return "fake"; }
  PreservedAnalyses run(Module &, FunctionAnalysisManager &,
                        PassContext &) override {
    return PA;
  }

private:
  PreservedAnalyses PA;
};

TEST(PassManager, AppliesPreservedAnalyses) {
  Module M = smallWorkload(14);
  ASSERT_GE(M.numFunctions(), 2u);
  FunctionAnalysisManager FAM(M);
  std::shared_ptr<const CfgView> C0 = FAM.cfg(0);
  std::shared_ptr<const CfgView> C1 = FAM.cfg(1);

  ModulePassManager MPM;
  MPM.addPass(std::make_unique<FakeTransformPass>(
      PreservedAnalyses::allExceptFunctions({0})));
  PassContext Ctx;
  ASSERT_TRUE(MPM.run(M, FAM, Ctx));
  EXPECT_NE(FAM.cfg(0).get(), C0.get());
  EXPECT_EQ(FAM.cfg(1).get(), C1.get());

  ModulePassManager MPM2;
  MPM2.addPass(
      std::make_unique<FakeTransformPass>(PreservedAnalyses::none()));
  ASSERT_TRUE(MPM2.run(M, FAM, Ctx));
  FAM.cfg(0);
  FAM.cfg(1);
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).Computed, 5u); // 2 + 1 + 2 recomputes.
}

TEST(PassManager, PreparePipelineCollectsProfilesAndRebindsAdvice) {
  Module M = smallWorkload(15);
  ModulePassManager MPM;
  std::string Error;
  ASSERT_TRUE(parsePipeline(DefaultPreparePipelineSpec, MPM, Error)) << Error;

  FunctionAnalysisManager FAM(M);
  PassContext Ctx;
  ASSERT_TRUE(MPM.run(M, FAM, Ctx)) << Ctx.Error;
  ASSERT_EQ(Ctx.Profiles.size(), 3u);
  EXPECT_EQ(FAM.advice(), &Ctx.Profiles.back().EP);
  EXPECT_EQ(verifyModule(M), "");
  // The first snapshot profiled the pre-expansion module.
  EXPECT_GT(Ctx.Profiles.front().Res.Cost, 0u);
}

TEST(PassManager, TransformPassRequiresAdvice) {
  Module M = smallWorkload(16);
  ModulePassManager MPM;
  std::string Error;
  ASSERT_TRUE(parsePipeline("inline", MPM, Error)) << Error;
  FunctionAnalysisManager FAM(M);
  PassContext Ctx;
  EXPECT_FALSE(MPM.run(M, FAM, Ctx));
  EXPECT_NE(Ctx.Error.find("requires a prior profile pass"),
            std::string::npos)
      << Ctx.Error;
}

//===----------------------------------------------------------------------===//
// Analysis-manager-served instrumentation
//===----------------------------------------------------------------------===//

TEST(Instrument, SharedAnalysesMatchSelfContainedAcrossPresets) {
  Module M = loopyWorkload(21);
  ProfiledRun Clean = profileModule(M);
  FunctionAnalysisManager FAM(M, &Clean.EP);

  const ProfilerOptions Presets[4] = {
      ProfilerOptions::pp(), ProfilerOptions::tpp(),
      ProfilerOptions::tppChecked(), ProfilerOptions::ppp()};
  for (const ProfilerOptions &Opts : Presets) {
    InstrumentationResult Ref = instrumentModule(M, Clean.EP, Opts);
    InstrumentationResult Shared = instrumentModule(M, Clean.EP, Opts, FAM);

    // Same instrumented code, byte for byte.
    EXPECT_EQ(writeModuleBinary(Ref.Instrumented),
              writeModuleBinary(Shared.Instrumented))
        << Opts.Name;
    ASSERT_EQ(Ref.Plans.size(), Shared.Plans.size());
    for (size_t I = 0; I < Ref.Plans.size(); ++I) {
      const FunctionPlan &A = Ref.Plans[I];
      const FunctionPlan &B = Shared.Plans[I];
      EXPECT_EQ(A.Instrumented, B.Instrumented) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.Skip, B.Skip) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.NumPaths, B.NumPaths) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.TableKind, B.TableKind) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.ArraySize, B.ArraySize) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.StaticOps, B.StaticOps) << Opts.Name << " fn " << I;
      EXPECT_DOUBLE_EQ(A.EdgeCoverage, B.EdgeCoverage)
          << Opts.Name << " fn " << I;
      EXPECT_EQ(A.ColdEdges, B.ColdEdges) << Opts.Name << " fn " << I;
      EXPECT_EQ(A.DisconnectedBackEdges, B.DisconnectedBackEdges)
          << Opts.Name << " fn " << I;
    }
  }

  // Four presets over one (module, advice): the shared analyses were
  // computed once and served from cache thereafter.
  EXPECT_EQ(FAM.stats(AnalysisKind::Cfg).Computed, M.numFunctions());
  EXPECT_EQ(FAM.stats(AnalysisKind::ProfiledDag).Computed,
            M.numFunctions());
  EXPECT_GE(FAM.stats(AnalysisKind::Cfg).CacheHits, 3 * M.numFunctions());
  EXPECT_GE(FAM.stats(AnalysisKind::ProfiledDag).CacheHits,
            3 * M.numFunctions());
  EXPECT_EQ(FAM.invalidations(), 0u);
}

TEST(Instrument, PlanAnalysesSurviveManagerInvalidation) {
  // A plan must keep working after the manager that served its analyses
  // drops every cache entry (shared_ptr keep-alive).
  Module M = smallWorkload(22);
  ProfiledRun Clean = profileModule(M);
  FunctionAnalysisManager FAM(M, &Clean.EP);
  InstrumentationResult IR =
      instrumentModule(M, Clean.EP, ProfilerOptions::ppp(), FAM);
  FAM.invalidateAll();

  InstrumentedRun Run = runInstrumented(IR);
  checkMeasurementInvariants(M, IR, Run, Clean, false);
}

} // namespace
