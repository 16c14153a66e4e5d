//===- adapt/AdaptiveSession.h - One adaptive execution stack --*- C++ -*-===//
///
/// \file
/// Everything one adaptively-optimized execution needs, owned together
/// with stable addresses: the clean module, its PPP instrumentation,
/// the live counter runtime, the interpreter, and the controller wired
/// in as the epoch hook. The bench harness, the smoke tool, the fuzz
/// battery, and the tests all stand up the same stack; this is the one
/// place its ownership and wiring order live.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_ADAPT_ADAPTIVESESSION_H
#define PPP_ADAPT_ADAPTIVESESSION_H

#include "adapt/AdaptiveController.h"

#include <memory>

namespace ppp {
namespace adapt {

class AdaptiveSession {
public:
  /// Builds the full stack for \p M: PPP-instruments a clone of it
  /// under \p Advice (instrumentation advice -- pass the module's edge
  /// profile, e.g. profileClean(M, IO).EP), creates the counter
  /// runtime, binds an interpreter to the instrumented module, and
  /// attaches an AdaptiveController with \p AOpts. Heap-only: the
  /// members hold pointers into each other.
  static std::unique_ptr<AdaptiveSession>
  create(const Module &M, const EdgeProfile &Advice,
         const InterpOptions &IO, const AdaptiveOptions &AOpts,
         const ProfilerOptions &POpts = ProfilerOptions::adaptive());

  /// Runs the instrumented module once, adaptively. Counters accumulate
  /// across runs (the controller samples deltas); versions persist.
  RunResult run() {
    Controller->noteRunBoundary();
    return Interp->run();
  }

  AdaptiveController &controller() { return *Controller; }
  Interpreter &interp() { return *Interp; }
  ProfileRuntime &runtime() { return *RT; }
  const Module &clean() const { return Clean; }
  const InstrumentationResult &instrumentation() const { return IR; }

  AdaptiveSession(const AdaptiveSession &) = delete;
  AdaptiveSession &operator=(const AdaptiveSession &) = delete;

private:
  AdaptiveSession() = default;

  Module Clean;
  InstrumentationResult IR;
  std::unique_ptr<ProfileRuntime> RT;
  std::unique_ptr<Interpreter> Interp;
  std::unique_ptr<AdaptiveController> Controller;
};

} // namespace adapt
} // namespace ppp

#endif // PPP_ADAPT_ADAPTIVESESSION_H
