//===- tools/adapt_run.cpp - Adaptive re-optimization CLI ---------------------===//
///
/// \file
/// File-level driver for the adaptive loop (src/adapt), the vehicle for
/// tools/adapt_smoke.sh's identity check:
///
///   adapt_run clean    --bench=NAME --out=FILE [--reps=N]
///   adapt_run adaptive --bench=NAME --out=FILE [--reps=N]
///                      [--cadence=CALLS] [--sessions=K]
///
/// `clean` runs the named suite benchmark's expanded module untouched,
/// one line of `ret=<value> mem=<checksum>` per rep. `adaptive` stands
/// up an AdaptiveSession (PPP instrumentation + controller with an
/// aggressive cadence) and runs the same rep count, versions hot-swapped
/// mid-run and persisting across reps -- so the file is the adaptive
/// execution's observable-semantics trace, and `cmp` against the clean
/// file is the oracle: adaptation must never change a single byte of
/// it.
///
/// `--sessions=K` runs K independent sessions on parallelJobs(K)
/// workers (PPP_JOBS, at most K) and requires their traces identical
/// before writing (adaptation is deterministic and self-contained per
/// session, even concurrently).
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "adapt/AdaptiveSession.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: adapt_run clean    --bench=NAME --out=FILE [--reps=N]\n"
      "       adapt_run adaptive --bench=NAME --out=FILE [--reps=N]\n"
      "                          [--cadence=CALLS] [--sessions=K]\n");
}

std::string runTrace(const PreparedBenchmark &B, unsigned Reps,
                     uint64_t Cadence) {
  std::string Out;
  char Line[64];
  auto Append = [&](const RunResult &R) {
    std::snprintf(Line, sizeof(Line), "ret=%lld mem=%016llx\n",
                  static_cast<long long>(R.ReturnValue),
                  static_cast<unsigned long long>(R.MemChecksum));
    Out += Line;
  };
  if (Cadence == 0) {
    InterpOptions IO;
    IO.Costs = B.Costs;
    Interpreter I(B.Expanded, IO);
    for (unsigned R = 0; R < Reps; ++R)
      Append(I.run());
    return Out;
  }
  adapt::AdaptiveOptions AO;
  AO.EpochCalls = Cadence;
  AO.MinPathDelta = 1;
  AO.EvalEpochs = 1;
  AO.RevertThresholdPct = 0.0; // Hair-trigger: swaps and reverts both.
  AO.BackoffIdleEpochs = 2;
  InterpOptions IO;
  IO.Costs = B.Costs;
  std::unique_ptr<adapt::AdaptiveSession> S =
      adapt::AdaptiveSession::create(B.Expanded, B.EP, IO, AO);
  for (unsigned R = 0; R < Reps; ++R)
    Append(S->run());
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  std::string Cmd = argv[1];
  std::string Bench, OutPath;
  unsigned Reps = 6, Sessions = 1;
  uint64_t Cadence = 64;
  for (int I = 2; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strncmp(A, "--bench=", 8) == 0)
      Bench = A + 8;
    else if (std::strncmp(A, "--out=", 6) == 0)
      OutPath = A + 6;
    else if (std::strncmp(A, "--reps=", 7) == 0)
      Reps = static_cast<unsigned>(std::strtoul(A + 7, nullptr, 10));
    else if (std::strncmp(A, "--cadence=", 10) == 0)
      Cadence = std::strtoull(A + 10, nullptr, 10);
    else if (std::strncmp(A, "--sessions=", 11) == 0)
      Sessions = static_cast<unsigned>(std::strtoul(A + 11, nullptr, 10));
    else {
      usage();
      return 2;
    }
  }
  if (Bench.empty() || OutPath.empty() || Reps == 0 || Sessions == 0 ||
      (Cmd != "clean" && Cmd != "adaptive")) {
    usage();
    return 2;
  }

  std::optional<BenchmarkSpec> Spec = findBenchmark(Bench);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown benchmark '%s'\n", Bench.c_str());
    return 1;
  }
  PreparedBenchmark B = prepare(*Spec);

  uint64_t UseCadence = Cmd == "clean" ? 0 : Cadence;
  std::vector<unsigned> Ids(Sessions);
  for (unsigned S = 0; S < Sessions; ++S)
    Ids[S] = S;
  std::vector<std::string> Traces = runParallel(
      Ids, parallelJobs(Sessions),
      [](unsigned S) { return "session" + std::to_string(S); },
      [&](unsigned) { return runTrace(B, Reps, UseCadence); });
  for (unsigned S = 1; S < Sessions; ++S)
    if (Traces[S] != Traces[0]) {
      std::fprintf(stderr,
                   "error: %s: session %u produced a different trace than "
                   "session 0\n",
                   Bench.c_str(), S);
      return 1;
    }

  std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
  Out.write(Traces[0].data(), static_cast<std::streamsize>(Traces[0].size()));
  if (!Out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}
