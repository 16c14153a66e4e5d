//===- perfbench/main.cpp - Repository benchmark driver --------------------===//
///
/// \file
/// perfbench --workload online_int|served_ingest --seed N
///           --seconds S --trace 0|1 [--trace-out FILE]
///
/// Runs one workload from a seed, checks its outputs, and prints every
/// metric with its unit; the last stdout line is the JSON result. With
/// --trace 0 it reports the end-to-end metrics; with --trace 1 the
/// per-layer metrics, from a run that records spans around each layer
/// call (written to --trace-out as a Chrome trace). See README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"
#include "Stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

extern char **environ;

using namespace pb;

namespace {

int usage() {
  fprintf(stderr, "usage: perfbench --workload online_int|served_ingest "
                  "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

/// Environment variables that swap the program's code path (pipeline,
/// k-iteration axis, preparation cache, thread count, telemetry).
bool programSwitchSet() {
  static const char *const Exact[] = {
      "PPP_PIPELINE", "PPP_KITER",        "PPP_JOBS",       "PPP_METRICS",
      "PPP_TRACE",    "PPP_INTERP_STATS", "PPP_PASS_STATS",
  };
  bool Found = false;
  for (char **E = environ; *E; ++E) {
    std::string Name(*E, strcspn(*E, "="));
    bool Hit = Name.rfind("PPP_CACHE", 0) == 0;
    for (const char *X : Exact)
      Hit |= Name == X;
    if (Hit) {
      fprintf(stderr, "perfbench: error: %s is set; unset it to benchmark "
                      "the default code path\n",
              Name.c_str());
      Found = true;
    }
  }
  return Found;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = strtod(S, &End);
  return End != S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveSeed = false;
  double Trace = -1;
  if (Argc % 2 == 0)
    return usage();
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string A = Argv[I];
    const char *V = Argv[I + 1];
    bool Ok = true;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      char *End = nullptr;
      O.Seed = strtoull(V, &End, 10);
      Ok = HaveSeed = End != V && *End == '\0';
    } else if (A == "--seconds") {
      Ok = parseNumber(V, O.Seconds);
    } else if (A == "--trace") {
      Ok = parseNumber(V, Trace);
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      Ok = false;
    }
    if (!Ok)
      return usage();
  }
  if (O.Workload.empty() || !HaveSeed || (Trace != 0 && Trace != 1) ||
      !(O.Seconds > 0))
    return usage();
  O.Trace = Trace == 1;
  if (programSwitchSet())
    return 2;

  Report R;
  if (O.Workload == "online_int")
    runOnline(O, R);
  else if (O.Workload == "served_ingest")
    runServed(O, R);
  else
    return usage();

  R.set("fail_frac", R.attempted() ? static_cast<double>(R.failed()) /
                                         static_cast<double>(R.attempted())
                                   : 1);
  R.set("peak_rss_mb", peakRssMb());
  if (O.Trace && !O.TraceOut.empty()) {
    if (!writeChromeTrace(O.TraceOut))
      fprintf(stderr, "perfbench: warning: cannot write %s\n",
              O.TraceOut.c_str());
    else
      printf("spans written to %s\n", O.TraceOut.c_str());
  }
  R.print(O.Trace);
  return 0;
}
