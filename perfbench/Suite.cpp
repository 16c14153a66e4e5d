//===- perfbench/Suite.cpp - Set-up and blocked run comparison -------------===//

#include "Bench.h"
#include "Spans.h"
#include "Stats.h"

#include "profile/BinaryIO.h"
#include "support/BinStream.h"
#include "support/Rng.h"
#include "trace/TraceRecorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace pb;
using namespace ppp;

void pb::fatal(const std::string &Msg) {
  fprintf(stderr, "perfbench: error: %s\n", Msg.c_str());
  std::exit(1);
}

namespace {

bool sameOutput(const RunResult &A, const RunResult &B) {
  return !A.FuelExhausted && !B.FuelExhausted &&
         A.ReturnValue == B.ReturnValue && A.MemChecksum == B.MemChecksum;
}

uint64_t digest(const std::string &Bytes, uint64_t H) {
  return fnv1a(Bytes.data(), Bytes.size(), H);
}

} // namespace

std::vector<ProfilerOptions> pb::cycleProfilers() {
  return {ProfilerOptions::pp(), ProfilerOptions::tpp(),
          ProfilerOptions::ppp(), ProfilerOptions::trace()};
}

std::vector<BenchmarkSpec> pb::suiteRecipes(uint64_t Seed) {
  std::vector<BenchmarkSpec> Out;
  for (unsigned D = 0; D < DrawsPerRecipe; ++D)
    for (BenchmarkSpec S : spec2000Suite()) {
      if (S.IsFp)
        continue;
      uint64_t Draw = Seed * DrawsPerRecipe + D;
      if (Draw != 0)
        S.Params.Seed = Rng(S.Params.Seed ^ Rng(Draw).next()).next();
      if (D > 0)
        S.Name = S.Params.Name = S.Name + "." + std::to_string(D);
      Out.push_back(std::move(S));
    }
  return Out;
}

SuiteSetup pb::prepareSuite(const std::vector<BenchmarkSpec> &Specs) {
  SuiteSetup S;
  S.Digest = fnv1a(nullptr, 0);
  uint64_t T0 = nowNs();
  for (const BenchmarkSpec &Spec : Specs) {
    PreparedModule M;
    Span Gen("generate");
    Module Generated = buildCalibrated(Spec);
    S.GenerateMs += Gen.end();
    Span Prep("prepare");
    M.B = bench::prepareUncached(Spec);
    S.PrepareMs += Prep.end();

    std::string Bytes = writeModuleBinary(Generated);
    if (Bytes != writeModuleBinary(M.B.Original))
      fatal("generating " + Spec.Name + " twice gave different modules");
    S.Digest = digest(writeModuleBinary(M.B.Expanded), digest(Bytes, S.Digest));

    Span Ref("clean_ref");
    InterpOptions IO;
    IO.Costs = M.B.Costs;
    Interpreter I(M.B.Expanded, IO);
    M.Clean = I.run();
    Ref.end();
    if (M.Clean.FuelExhausted)
      fatal("clean run of " + Spec.Name + " ran out of fuel");
    S.Mods.push_back(std::move(M));
  }
  S.Seconds = msBetween(T0, nowNs()) / 1e3;
  return S;
}

SuiteSetup
pb::prepareSuiteMedian(const std::vector<BenchmarkSpec> &Specs, Report &R,
                       const std::function<double(const SuiteSetup &)> &Extra) {
  std::vector<double> Secs, Gen, Prep;
  SuiteSetup Last;
  for (unsigned I = 0; I < SetupReps; ++I) {
    uint64_t PrevDigest = Last.Digest;
    Last = SuiteSetup(); // Free the previous repetition first.
    Last = prepareSuite(Specs);
    if (I > 0 && Last.Digest != PrevDigest)
      fatal("two set-ups from the same seed gave different inputs");
    double Extra_s = Extra ? Extra(Last) : 0;
    Secs.push_back(Last.Seconds + Extra_s);
    Gen.push_back(Last.GenerateMs);
    Prep.push_back(Last.PrepareMs);
  }
  printf("input digest %016llx (%zu modules)\n",
         static_cast<unsigned long long>(Last.Digest), Last.Mods.size());

  uint64_t DynInstrs = 0, Inlined = 0, Unrolled = 0;
  for (const PreparedModule &M : Last.Mods) {
    DynInstrs += M.B.DynInstrs;
    Inlined += M.B.Inline.SitesInlined;
    Unrolled += M.B.Unroll.LoopsUnrolled;
  }
  R.set("setup_s", median(Secs));
  R.set("workload.generate_ms", median(Gen));
  R.set("pass.prepare_ms", median(Prep));
  R.set("workload.modules", static_cast<double>(Last.Mods.size()));
  R.set("workload.dyn_instrs", static_cast<double>(DynInstrs));
  R.set("opt.sites_inlined", static_cast<double>(Inlined));
  R.set("opt.loops_unrolled", static_cast<double>(Unrolled));
  return Last;
}

void pb::reportSelfTimes(Report &R,
                         std::initializer_list<const char *> UnitSpans,
                         double Units) {
  std::map<std::string, double> Self = selfTimes();
  printf("%-12s %14s\n", "span", "self ms");
  for (const auto &[Name, Ms] : Self)
    printf("%-12s %14.3f\n", Name.c_str(), Ms);
  for (const char *Name : UnitSpans)
    R.set(std::string("self_ms.") + Name, Self[Name] / Units);
  for (const char *Name : {"generate", "prepare"})
    R.set(std::string("self_ms.") + Name, Self[Name] / SetupReps);
}

//===----------------------------------------------------------------------===//
// Blocked clean-vs-profiled comparison
//===----------------------------------------------------------------------===//

namespace {

/// Timed repetitions per block and the block order of the first-built
/// side (A) and the second (B). Every block starts with one untimed run,
/// so no timed run follows a switch of side; otherwise the second B
/// block, which follows a B block, would be the only warm start.
constexpr unsigned BlockReps = 2;
constexpr const char BlockOrder[] = "ABBA";

/// How far the A/A (clean against clean) ratio may sit from 1 before the
/// comparison counts as biased.
constexpr double AATolerance = 0.01;

/// One side of a comparison: a reusable interpreter plus whatever the
/// variant attaches per run. Timing covers run() only.
class Side {
public:
  /// Clean run of \p M (Profile null) or a run under \p Profile.
  Side(const PreparedModule &M, const ProfilerOptions *Profile)
      : Mod(M) {
    InterpOptions IO;
    IO.Costs = M.B.Costs;
    if (Profile && !Profile->TraceBackend) {
      IR = std::make_unique<InstrumentationResult>(
          instrumentModule(M.B.Expanded, M.B.EP, *Profile));
      RT = std::make_unique<ProfileRuntime>(IR->makeRuntime());
      Interp = std::make_unique<Interpreter>(IR->Instrumented, IO);
      Interp->setProfileRuntime(RT.get());
    } else {
      Interp = std::make_unique<Interpreter>(M.B.Expanded, IO);
      Record = Profile != nullptr;
    }
  }

  /// One timed run; false if its output differs from the clean run.
  bool run(std::vector<double> &Ms) {
    if (RT)
      RT->clearCounts();
    std::unique_ptr<trace::TraceRecorder> Rec;
    if (Record) {
      Rec = std::make_unique<trace::TraceRecorder>();
      Interp->setTraceRecorder(Rec.get());
    }
    uint64_t T0 = nowNs();
    RunResult Res = Interp->run();
    Ms.push_back(msBetween(T0, nowNs()));
    Interp->setTraceRecorder(nullptr);
    Cost = Res.Cost;
    return sameOutput(Res, Mod.Clean);
  }

  uint64_t Cost = 0;

private:
  const PreparedModule &Mod;
  std::unique_ptr<InstrumentationResult> IR;
  std::unique_ptr<ProfileRuntime> RT;
  std::unique_ptr<Interpreter> Interp;
  bool Record = false;
};

} // namespace

BlockedComparison::BlockedComparison(const std::vector<PreparedModule> &Mods,
                                     std::vector<ProfilerOptions> Profs)
    : Mods(Mods), Profs(std::move(Profs)),
      Samples(Mods.size(), std::vector<Pair>(this->Profs.size() + 1)) {}

void BlockedComparison::step(Report &R) {
  size_t Step = Next++;
  size_t M = Step % Mods.size();
  const PreparedModule &Mod = Mods[M];
  for (size_t V = 0; V <= Profs.size(); ++V) {
    // Variant Profs.size() is the A/A pair: clean against clean.
    const ProfilerOptions *Variant = V < Profs.size() ? &Profs[V] : nullptr;
    // Every other pair swaps which side is built first and runs the
    // outer blocks (BAAB), so neither side owns a memory layout or the
    // step's first and last position.
    bool Swap = (Step + V) % 2;
    Side First(Mod, Swap ? Variant : nullptr);
    Side Second(Mod, Swap ? nullptr : Variant);
    Pair &P = Samples[M][V];
    std::vector<double> &FirstMs = Swap ? P.B : P.A;
    std::vector<double> &SecondMs = Swap ? P.A : P.B;
    std::vector<double> Untimed, BlockMs;
    bool Ok = true;
    for (const char *Block = BlockOrder; *Block; ++Block) {
      bool IsFirst = *Block == 'A';
      Side &S = IsFirst ? First : Second;
      std::vector<double> &Ms = IsFirst ? FirstMs : SecondMs;
      Ok &= S.run(Untimed);
      for (unsigned I = 0; I < BlockReps; ++I)
        Ok &= S.run(Ms);
      BlockMs.push_back(
          median(std::vector<double>(Ms.end() - BlockReps, Ms.end())));
    }
    // Adjacent blocks (one of each side) give one variant / clean ratio.
    for (size_t I = 0; I + 1 < BlockMs.size(); I += 2) {
      bool FirstLeads = BlockOrder[I] == 'A';
      double FirstBlock = BlockMs[FirstLeads ? I : I + 1];
      double SecondBlock = BlockMs[FirstLeads ? I + 1 : I];
      P.BlockRatios.push_back(Swap ? FirstBlock / SecondBlock
                                   : SecondBlock / FirstBlock);
    }
    if (!Ok)
      R.fail("a blocked-comparison run of " + Mod.B.Name +
             " differs from its clean run");
    P.CostA = (Swap ? Second : First).Cost;
    P.CostB = (Swap ? First : Second).Cost;
  }
}

void BlockedComparison::report(Report &R) const {
  double CleanInstrs = 0, CleanMs = 0, ProfiledInstrs = 0, ProfiledMs = 0;
  std::vector<double> VariantMs(Profs.size(), 0);
  std::vector<std::vector<double>> Ratios(Profs.size() + 1),
      ModelRatios(Profs.size());
  for (size_t M = 0; M < Mods.size(); ++M) {
    double Instrs = static_cast<double>(Mods[M].Clean.DynInstrs);
    std::vector<double> CleanPool;
    for (size_t V = 0; V <= Profs.size(); ++V) {
      const Pair &P = Samples[M][V];
      CleanPool.insert(CleanPool.end(), P.A.begin(), P.A.end());
      Ratios[V].insert(Ratios[V].end(), P.BlockRatios.begin(),
                       P.BlockRatios.end());
      if (V == Profs.size())
        continue;
      ModelRatios[V].push_back(static_cast<double>(P.CostB) /
                               static_cast<double>(P.CostA));
      VariantMs[V] += median(P.B);
      ProfiledInstrs += Instrs;
      ProfiledMs += median(P.B);
    }
    CleanInstrs += Instrs;
    CleanMs += median(CleanPool);
  }
  R.set("clean_mips", CleanInstrs / (CleanMs * 1e3));
  R.set("profiled_mips", ProfiledInstrs / (ProfiledMs * 1e3));
  R.set("interp.clean_run_ms", CleanMs);
  // The A/A ratio shows a bias when it reads more than 1% from 1 and its
  // distribution-free 95% interval (order statistics n/2 -+ 0.98 sqrt(n))
  // excludes 1. It is a timing, not an output of the program: a host
  // whose speed drifts during the run can push it there, so it warns and
  // leaves `correct` alone.
  std::vector<double> AARatios = Ratios[Profs.size()];
  std::sort(AARatios.begin(), AARatios.end());
  double AA = median(AARatios);
  double N = static_cast<double>(AARatios.size());
  double Half = 0.98 * std::sqrt(N);
  size_t Lo = static_cast<size_t>(std::max(0.0, std::floor(N / 2 - Half)));
  size_t Hi = static_cast<size_t>(std::min(N - 1, std::ceil(N / 2 + Half)));
  R.set("interp.run_ratio.aa", AA);
  if (std::fabs(AA - 1) > AATolerance &&
      (AARatios[Lo] > 1 || AARatios[Hi] < 1))
    fprintf(stderr,
            "perfbench: warning: clean-vs-clean run ratio %.4f is more than "
            "1%% from 1 beyond its noise (interval %.4f..%.4f of %zu block "
            "ratios): run ratios and MIPS of this run are biased\n",
            AA, AARatios[Lo], AARatios[Hi], AARatios.size());
  for (size_t V = 0; V < Profs.size(); ++V) {
    const std::string &Name = Profs[V].Name;
    R.set("interp.profiled_run_ms." + Name, VariantMs[V]);
    R.set("interp.run_ratio." + Name, median(Ratios[V]));
    R.set("interp.model_ratio." + Name, median(ModelRatios[V]));
  }
}
