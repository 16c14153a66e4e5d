//===- workload/Suite.cpp - The SPEC2000-like benchmark suite ---------------===//

#include "workload/Suite.h"

#include "interp/Interpreter.h"

#include <algorithm>

using namespace ppp;

namespace {

/// Shared INT-style base: branchy, short blocks, modest loops, calls.
WorkloadParams intBase(uint64_t Seed, const std::string &Name) {
  WorkloadParams P;
  P.Seed = Seed;
  P.Name = Name;
  P.NumFunctions = 10;
  P.TopStmtsMin = 5;
  P.TopStmtsMax = 12;
  P.MaxDepth = 3;
  P.IfPct = 34;
  P.LoopPct = 12;
  P.SwitchPct = 6;
  P.CallPct = 16;
  P.OpsMin = 1;
  P.OpsMax = 4;
  P.SkewedIfPct = 72;
  P.SkewMin = 88;
  P.SkewMax = 97;
  P.TripMin = 2;
  P.TripMax = 10;
  P.HotLoopPct = 20;
  P.HotTripMin = 30;
  P.HotTripMax = 120;
  return P;
}

/// Shared FP-style base: loop nests, long straight-line blocks, few
/// branches, high trip counts.
WorkloadParams fpBase(uint64_t Seed, const std::string &Name) {
  WorkloadParams P;
  P.Seed = Seed;
  P.Name = Name;
  P.NumFunctions = 6;
  P.TopStmtsMin = 3;
  P.TopStmtsMax = 7;
  P.MaxDepth = 3;
  P.IfPct = 10;
  P.LoopPct = 32;
  P.SwitchPct = 0;
  P.CallPct = 10;
  P.OpsMin = 3;
  P.OpsMax = 9;
  P.SkewedIfPct = 90;
  P.SkewMin = 92;
  P.SkewMax = 99;
  P.TripMin = 4;
  P.TripMax = 16;
  P.HotLoopPct = 45;
  P.HotTripMin = 50;
  P.HotTripMax = 250;
  return P;
}

} // namespace

std::vector<BenchmarkSpec> ppp::spec2000Suite() {
  std::vector<BenchmarkSpec> Suite;
  auto AddInt = [&](const std::string &Name, uint64_t Seed,
                    auto Tweak) {
    BenchmarkSpec S;
    S.Name = Name;
    S.Params = intBase(Seed, Name);
    S.IsFp = false;
    Tweak(S);
    Suite.push_back(std::move(S));
  };
  auto AddFp = [&](const std::string &Name, uint64_t Seed, auto Tweak) {
    BenchmarkSpec S;
    S.Name = Name;
    S.Params = fpBase(Seed, Name);
    S.IsFp = true;
    Tweak(S);
    Suite.push_back(std::move(S));
  };

  // --- CINT2000 ---
  // vpr: place-and-route; branchy inner loops, moderate skew.
  AddInt("vpr", 0x1001, [](BenchmarkSpec &S) {
    S.Params.IfPct = 36;
    S.Params.TopStmtsMin = 7;
    S.Params.TopStmtsMax = 14;
    S.Params.MaxDepth = 4;
    S.Params.SkewedIfPct = 60;
    S.Params.SkewMin = 80;
    S.Params.SkewMax = 95;
  });
  // mcf: tiny code, pointer-chasing loops, few distinct paths.
  AddInt("mcf", 0x1002, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 5;
    S.Params.TopStmtsMin = 3;
    S.Params.TopStmtsMax = 7;
    S.Params.IfPct = 24;
    S.Params.LoopPct = 22;
    S.Params.MemOpPct = 45;
    S.Params.SkewedIfPct = 85;
  });
  // crafty: chess search; very branchy, hard-to-predict decisions and
  // huge path spaces (the paper's hardest coverage case).
  AddInt("crafty", 0x1003, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 12;
    S.Params.TopStmtsMin = 8;
    S.Params.TopStmtsMax = 16;
    S.Params.IfPct = 42;
    S.Params.MaxDepth = 4;
    S.Params.SkewedIfPct = 35; // Mostly balanced branches.
    S.Params.SwitchPct = 8;
    S.AllowInlining = false; // No cross-module inlining in the paper.
  });
  // parser: grammar exploration; many warm paths, deep nesting.
  AddInt("parser", 0x1004, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 12;
    S.Params.IfPct = 40;
    S.Params.MaxDepth = 4;
    S.Params.SkewedIfPct = 50;
    S.Params.SkewMin = 75;
    S.Params.SkewMax = 92;
  });
  // perlbmk: interpreter dispatch; switch-heavy.
  AddInt("perlbmk", 0x1005, [](BenchmarkSpec &S) {
    S.Params.SwitchPct = 14;
    S.Params.SwitchArmsMin = 4;
    S.Params.SwitchArmsMax = 8;
    S.Params.SkewedIfPct = 55;
    S.AllowInlining = false;
  });
  // gap: group-theory interpreter; mixed branches and arithmetic.
  AddInt("gap", 0x1006, [](BenchmarkSpec &S) {
    S.Params.SwitchPct = 10;
    S.Params.SkewedIfPct = 70;
  });
  // bzip2: compression; skewed bit-twiddling loops.
  AddInt("bzip2", 0x1007, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 6;
    S.Params.LoopPct = 20;
    S.Params.HotLoopPct = 35;
    S.Params.SkewedIfPct = 80;
    S.Params.MemOpPct = 40;
  });
  // twolf: placement; branchy with moderate skew (hard for PPP too).
  AddInt("twolf", 0x1008, [](BenchmarkSpec &S) {
    S.Params.IfPct = 38;
    S.Params.SkewedIfPct = 45;
    S.Params.SkewMin = 70;
    S.Params.SkewMax = 90;
  });

  // --- CFP2000 ---
  // wupwise: wide loop nests with inner conditionals.
  AddFp("wupwise", 0x2001, [](BenchmarkSpec &S) {
    S.Params.IfPct = 16;
    S.Params.SkewedIfPct = 60;
  });
  // swim: pure stencil loops; almost no branching (PPP instruments
  // nothing -- the paper's exception case).
  AddFp("swim", 0x2002, [](BenchmarkSpec &S) {
    S.Params.IfPct = 1;
    S.Params.SwitchPct = 0;
    S.Params.CallPct = 4;
    S.Params.OpsMin = 12;
    S.Params.OpsMax = 28;
    S.Params.LoopPct = 38;
  });
  // mgrid: multigrid; like swim with slightly more control flow.
  AddFp("mgrid", 0x2003, [](BenchmarkSpec &S) {
    S.Params.IfPct = 3;
    S.Params.CallPct = 6;
    S.Params.OpsMin = 10;
    S.Params.OpsMax = 22;
    S.Params.LoopPct = 36;
  });
  // applu: PDE solver; deep nests, a few guards.
  AddFp("applu", 0x2004, [](BenchmarkSpec &S) {
    S.Params.IfPct = 8;
    S.Params.MaxDepth = 4;
  });
  // mesa: rasterizer; FP code with real branching.
  AddFp("mesa", 0x2005, [](BenchmarkSpec &S) {
    S.Params.IfPct = 22;
    S.Params.SwitchPct = 4;
    S.Params.SkewedIfPct = 65;
    S.AllowInlining = false;
  });
  // art: neural net; small kernels, fully inlinable.
  AddFp("art", 0x2006, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 4;
    S.Params.TopStmtsMin = 2;
    S.Params.TopStmtsMax = 5;
    S.Params.IfPct = 14;
    S.Params.CallPct = 18;
  });
  // equake: sparse solver; skewed guards inside hot loops.
  AddFp("equake", 0x2007, [](BenchmarkSpec &S) {
    S.Params.NumFunctions = 4;
    S.Params.IfPct = 12;
    S.Params.MemOpPct = 40;
    S.Params.CallPct = 16;
  });
  // ammp: molecular dynamics; larger bodies, some branching.
  AddFp("ammp", 0x2008, [](BenchmarkSpec &S) {
    S.Params.IfPct = 18;
    S.Params.NumFunctions = 8;
    S.Params.TopStmtsMin = 5;
    S.Params.TopStmtsMax = 9;
    S.Params.SkewedIfPct = 75;
  });
  // sixtrack: accelerator sim; big unrollable loop bodies.
  AddFp("sixtrack", 0x2009, [](BenchmarkSpec &S) {
    S.Params.OpsMin = 10;
    S.Params.OpsMax = 24;
    S.Params.IfPct = 10;
    S.Params.MaxDepth = 4;
  });
  // apsi: meteorology; many small loops, branches in nests.
  AddFp("apsi", 0x200a, [](BenchmarkSpec &S) {
    S.Params.IfPct = 14;
    S.Params.LoopPct = 34;
    S.Params.TripMin = 3;
    S.Params.TripMax = 10;
    S.Params.MaxDepth = 4;
  });

  return Suite;
}

std::optional<BenchmarkSpec> ppp::findBenchmark(const std::string &Name) {
  for (BenchmarkSpec &S : spec2000Suite())
    if (S.Name == Name)
      return std::move(S);
  return std::nullopt;
}

Module ppp::buildCalibrated(const BenchmarkSpec &Spec) {
  // Measure the per-iteration cost of main's driver loop with a small
  // trip count, then scale to the target. One refinement pass absorbs
  // nonlinearity from data-dependent trip counts.
  WorkloadParams P = Spec.Params;
  P.MainLoopTrips = 8;
  uint64_t Target = Spec.TargetDynInstrs;

  for (int Pass = 0; Pass < 2; ++Pass) {
    Module M = generateWorkload(P);
    InterpOptions IO;
    IO.Fuel = Target * 16 + 10'000'000;
    Interpreter I(M, IO);
    RunResult Res = I.run();
    if (Res.FuelExhausted || Res.DynInstrs == 0)
      break;
    double PerTrip = static_cast<double>(Res.DynInstrs) /
                     static_cast<double>(P.MainLoopTrips);
    uint64_t Trips = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(Target) / PerTrip));
    if (Trips == P.MainLoopTrips)
      break;
    P.MainLoopTrips = Trips;
  }
  return generateWorkload(P);
}
