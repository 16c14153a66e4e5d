//===- pass/Pipeline.h - Textual pipeline and profiler specs ---*- C++ -*-===//
///
/// \file
/// Textual specs for the two configurable layers of the system:
///
///  Pipeline specs -- comma-separated pass names for a
///  ModulePassManager:
///
///    pipeline  := pass ("," pass)*
///    pass      := "profile" | "profile<bench>" | "inline" | "unroll"
///               | "verify" | "instrument<" profiler-spec ">"
///
///  The default preparation pipeline (Harness steps 2-4) is
///  DefaultPreparePipelineSpec; PPP_PIPELINE overrides it, which is how
///  pipeline ablations run without recompiling. The spec also joins
///  prepare()'s memo key, so differently-prepared benchmarks never
///  collide.
///
///  Profiler specs -- a preset plus technique toggles, replacing the
///  hand-rolled option-editing of the Figure 13 ablations:
///
///    profiler-spec := preset (";" ("+" | "-") technique)*
///    preset        := "pp" | "tpp" | "tpp-checked" | "ppp"
///    technique     := "sac" | "fp" | "push" | "spn" | "lc"
///
///  "ppp;-sac" is PPP without the self-adjusting/global cold criteria
///  (a leave-one-out row); "tpp;+lc" is TPP plus the low-coverage gate
///  (a one-at-a-time row). Toggles apply left to right; the resulting
///  options Name is the preset name with "+tech"/"-tech" appended.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_PASS_PIPELINE_H
#define PPP_PASS_PIPELINE_H

#include "pass/PassManager.h"
#include "pathprof/Profilers.h"

#include <string>

namespace ppp {

/// The preparation pipeline mirroring Harness steps 2-4: profile the
/// original, inline on that advice, re-profile, unroll, verify, then
/// take the final (bench-cost) profile as self advice.
inline constexpr const char *DefaultPreparePipelineSpec =
    "profile,inline,profile,unroll,verify,profile<bench>";

/// The spec preparation actually runs: PPP_PIPELINE when set and
/// non-empty, otherwise DefaultPreparePipelineSpec.
std::string activePreparePipelineSpec();

/// Appends the passes of \p Spec to \p MPM. On a malformed spec leaves
/// \p Error describing the first problem and returns false (\p MPM may
/// hold a prefix of the passes).
bool parsePipeline(const std::string &Spec, ModulePassManager &MPM,
                   std::string &Error);

/// Parses a profiler spec ("ppp", "tpp;+sac", "ppp;-fp;-push") into
/// \p Out. False + \p Error on a malformed spec.
bool parseProfilerSpec(const std::string &Spec, ProfilerOptions &Out,
                       std::string &Error);

/// parseProfilerSpec for statically-known specs: prints the error to
/// stderr and exits on failure.
ProfilerOptions mustParseProfilerSpec(const std::string &Spec);

/// Applies one technique toggle to \p O (the "+tech"/"-tech" step of a
/// profiler spec), including the Name suffix. \p Technique must be one
/// of sac/fp/push/spn/lc; returns false (leaving \p O's flags
/// untouched) otherwise.
bool applyTechnique(ProfilerOptions &O, const std::string &Technique,
                    bool Enable);

} // namespace ppp

#endif // PPP_PASS_PIPELINE_H
