//===- tests/fastpath_test.cpp - Dispatch row equivalence --------------------===//
///
/// The interpreter's dispatch loop compiles once per ExecMode row.
/// These tests pin the contract that the rows are bit-identical:
/// attaching a no-op observer must not perturb ReturnValue, DynInstrs,
/// Cost, or MemChecksum, an observer beside a runtime is rejected, a
/// profiled rerun reproduces its counters -- and the parallel suite
/// driver must produce exactly what a serial loop produces.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interpreter.h"
#include "pathprof/Profilers.h"
#include "workload/Suite.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <utility>
#include <vector>

using namespace ppp;
using namespace ppp::bench;

namespace {

/// A do-nothing observer: selects the Observed row without changing any
/// observable state.
class NullObserver : public ExecObserver {};

void expectSameResult(const RunResult &A, const RunResult &B,
                      const std::string &Bench) {
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Bench;
  EXPECT_EQ(A.DynInstrs, B.DynInstrs) << Bench;
  EXPECT_EQ(A.Cost, B.Cost) << Bench;
  EXPECT_EQ(A.MemChecksum, B.MemChecksum) << Bench;
  EXPECT_EQ(A.FuelExhausted, B.FuelExhausted) << Bench;
}

/// All (path index, count) pairs plus the side counters of every table,
/// in deterministic order.
std::vector<std::pair<int64_t, uint64_t>>
snapshotCounts(const ProfileRuntime &RT) {
  std::vector<std::pair<int64_t, uint64_t>> Out;
  for (unsigned F = 0; F < RT.numFunctions(); ++F) {
    const PathTable &T = RT.table(static_cast<FuncId>(F));
    T.forEach([&](int64_t Idx, uint64_t C) { Out.emplace_back(Idx, C); });
    Out.emplace_back(-1000 - F, T.lostCount());
    Out.emplace_back(-2000 - F, T.invalidCount());
    Out.emplace_back(-3000 - F, T.coldCheckedCount());
  }
  return Out;
}

TEST(FastPath, ObserverAttachmentDoesNotPerturbExecution) {
  for (const BenchmarkSpec &Spec : spec2000Suite()) {
    Module M = buildCalibrated(Spec);

    Interpreter Clean(M);
    RunResult RClean = Clean.run();

    NullObserver Obs;
    Interpreter Observed(M);
    Observed.addObserver(&Obs);
    RunResult RObserved = Observed.run();

    expectSameResult(RClean, RObserved, Spec.Name);
    EXPECT_GT(RClean.DynInstrs, 0u) << Spec.Name;
  }
}

TEST(FastPath, ProfiledRowRejectsObservers) {
  // Instrumented modules through prepare() are the expensive part;
  // three representative recipes (branchy INT, call-heavy INT, loopy
  // FP) cover the array-table, hash-table, and checked-counting cases.
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)}) {
    ASSERT_LT(Pick, Suite.size());
    PreparedBenchmark B = prepare(Suite[Pick]);
    InstrumentationResult IR =
        instrumentModule(B.Expanded, B.EP, ProfilerOptions::ppp());

    ProfileRuntime RTA = IR.makeRuntime();
    Interpreter IA(IR.Instrumented);
    IA.setProfileRuntime(&RTA);
    RunResult RA = IA.run();

    // Observers watch clean modules only: the Profiled row has no
    // observer twin, so attaching one is an error, not a slower run.
    ProfileRuntime RTB = IR.makeRuntime();
    NullObserver Obs;
    Interpreter IB(IR.Instrumented);
    IB.setProfileRuntime(&RTB);
    IB.addObserver(&Obs);
    EXPECT_DEATH(IB.run(), "observers watch clean modules only") << B.Name;

    // clearCounts() + rerun reproduces the same counters in place.
    std::vector<std::pair<int64_t, uint64_t>> Counts = snapshotCounts(RTA);
    RTA.clearCounts();
    RunResult RC = IA.run();
    expectSameResult(RA, RC, B.Name);
    EXPECT_EQ(snapshotCounts(RTA), Counts) << B.Name;
  }
}

TEST(FastPath, ParallelSuiteMatchesSerialLoop) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();

  std::vector<RunResult> Serial;
  for (const BenchmarkSpec &Spec : Suite) {
    Module M = buildCalibrated(Spec);
    Serial.push_back(Interpreter(M).run());
  }

  setenv("PPP_JOBS", "4", /*overwrite=*/1);
  std::vector<RunResult> Parallel =
      runSuiteParallel(Suite, [](const BenchmarkSpec &Spec) {
        Module M = buildCalibrated(Spec);
        return Interpreter(M).run();
      });
  unsetenv("PPP_JOBS");

  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I)
    expectSameResult(Serial[I], Parallel[I], Suite[I].Name);
}

} // namespace
