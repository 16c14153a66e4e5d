//===- adapt/AdaptiveSession.cpp - One adaptive execution stack ------------===//

#include "adapt/AdaptiveSession.h"

using namespace ppp;
using namespace ppp::adapt;

std::unique_ptr<AdaptiveSession>
AdaptiveSession::create(const Module &M, const EdgeProfile &Advice,
                        const InterpOptions &IO,
                        const AdaptiveOptions &AOpts,
                        const ProfilerOptions &POpts) {
  std::unique_ptr<AdaptiveSession> S(new AdaptiveSession());
  S->Clean = M;
  S->IR = instrumentModule(S->Clean, Advice, POpts);
  S->RT = std::make_unique<ProfileRuntime>(S->IR.makeRuntime());
  S->Interp = std::make_unique<Interpreter>(S->IR.Instrumented, IO);
  S->Interp->setProfileRuntime(S->RT.get());
  S->Controller = std::make_unique<AdaptiveController>(
      S->Clean, S->IR, *S->RT, *S->Interp, AOpts);
  return S;
}
