//===- tests/measure_test.cpp - Blocked measurement loop tests ----------------===//
///
/// Pins bench/Measure: the call schedule measure() runs (warm-up first
/// and unsampled, then mirrored half-rounds) with fake variants that log
/// their calls, and the statistics as pure functions of fixed sample
/// vectors, so nothing here depends on the wall clock. The file is
/// compiled at -O3 (tests/CMakeLists.txt), so it also checks that sink()
/// builds where the engine bench's counter loops are most inlined.

#include "Measure.h"

#include "serve/ShardHash.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <functional>
#include <vector>

using namespace ppp::bench;

namespace {

/// Runs measure() over \p N fake variants that append their index to
/// the returned log.
std::vector<size_t> callLog(size_t N, unsigned Warmup, unsigned Reps,
                            Samples *Out = nullptr) {
  std::vector<size_t> Log;
  std::vector<std::function<void()>> Variants;
  for (size_t V = 0; V < N; ++V)
    Variants.push_back([&Log, V] { Log.push_back(V); });
  Samples S = measure(Variants, Warmup, Reps);
  if (Out)
    *Out = S;
  return Log;
}

TEST(Measure, WarmupRunsFirstAndIsNotSampled) {
  Samples S;
  std::vector<size_t> Log = callLog(3, 2, 4, &S);
  ASSERT_EQ(Log.size(), 3u * (2 + 2 * 4));
  std::vector<size_t> Warm(Log.begin(), Log.begin() + 6);
  EXPECT_EQ(Warm, (std::vector<size_t>{0, 1, 2, 2, 1, 0}));
  // One sample per timed block; warm-up and lead calls are unsampled.
  ASSERT_EQ(S.Secs.size(), 3u);
  for (const std::vector<double> &V : S.Secs) {
    EXPECT_EQ(V.size(), 4u);
    for (double Sec : V)
      EXPECT_GE(Sec, 0.0);
  }

  Samples NoWarm;
  EXPECT_EQ(callLog(2, 0, 2, &NoWarm),
            (std::vector<size_t>{0, 0, 1, 1, 1, 1, 0, 0}));
  EXPECT_EQ(NoWarm.Secs[0].size(), 2u);
}

TEST(Measure, BlocksRunInMirroredOrder) {
  // Two variants: ABBA rounds of two-call blocks (lead + timed), so
  // every timed call follows a call of its own variant. The timed reps
  // start a fresh forward half-round whatever the warm-up's parity, so
  // their ratios always come in forward/backward pairs.
  EXPECT_EQ(callLog(2, 1, 4),
            (std::vector<size_t>{0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1,
                                 1, 1, 0, 0}));
  // Three variants: ABC CBA.
  EXPECT_EQ(callLog(3, 0, 2),
            (std::vector<size_t>{0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 0, 0}));
  EXPECT_EQ(mirroredOrder(4, 3),
            (std::vector<size_t>{0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3}));
  EXPECT_TRUE(mirroredOrder(3, 0).empty());
}

TEST(Measure, MedianAndIqrInterpolate) {
  Spread Odd = spreadOf({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(Odd.Median, 3.0);
  EXPECT_DOUBLE_EQ(Odd.Iqr, 2.0); // p75 = 4, p25 = 2.
  EXPECT_EQ(Odd.N, 5u);
  Spread Even = spreadOf({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(Even.Median, 2.5);
  EXPECT_DOUBLE_EQ(Even.Iqr, 1.5); // p75 = 3.25, p25 = 1.75.
  Spread One = spreadOf({7});
  EXPECT_DOUBLE_EQ(One.Median, 7.0);
  EXPECT_DOUBLE_EQ(One.Iqr, 0.0);
  Spread None = spreadOf({});
  EXPECT_DOUBLE_EQ(None.Median, 0.0);
  EXPECT_DOUBLE_EQ(None.Iqr, 0.0);
  EXPECT_EQ(None.N, 0u);

  Spread Mean = meanOf({{2, 1, 8}, {4, 3, 6}});
  EXPECT_DOUBLE_EQ(Mean.Median, 3.0);
  EXPECT_DOUBLE_EQ(Mean.Iqr, 2.0);
  EXPECT_EQ(Mean.N, 6u);
}

TEST(Measure, RatiosPairRepsOfTheSameHalfRound) {
  Samples S;
  S.Secs = {{1, 2, 4, 2}, {2, 2, 2, 4}};
  // Per half-round: 2, 1, 0.5, 2.
  Spread R = S.ratio(1);
  EXPECT_DOUBLE_EQ(R.Median, 1.5);
  EXPECT_DOUBLE_EQ(R.Iqr, 2.0 - 0.875);
  // The inverse pairing: 0.5, 1, 2, 0.5.
  EXPECT_DOUBLE_EQ(S.ratio(0, 1).Median, 0.75);
  // A variant against itself is exactly 1 whatever the drift.
  EXPECT_DOUBLE_EQ(S.ratio(0, 0).Median, 1.0);
  EXPECT_DOUBLE_EQ(S.ratio(0, 0).Iqr, 0.0);

  // A linear slowdown across the run moves both variants' medians but
  // not the ratio of reps that ran back to back.
  Samples Drift;
  for (int I = 0; I < 8; ++I) {
    double Speed = 1.0 + 0.1 * I;
    Drift.Secs.resize(2);
    Drift.Secs[0].push_back(1.0 * Speed);
    Drift.Secs[1].push_back(1.25 * Speed);
  }
  EXPECT_NEAR(Drift.ratio(1).Median, 1.25, 1e-12);
  EXPECT_NEAR(Drift.ratio(1).Iqr, 0.0, 1e-12);
}

TEST(Measure, RatesAndScaledTimes) {
  Samples S;
  S.Secs = {{0.5, 0.25, 1.0}};
  Spread Rate = S.rate(0, 10);   // 20, 40, 10.
  EXPECT_DOUBLE_EQ(Rate.Median, 20.0);
  EXPECT_DOUBLE_EQ(Rate.Iqr, 30.0 - 15.0);
  Spread Us = S.time(0, 1e6);    // 0.5e6, 0.25e6, 1e6.
  EXPECT_DOUBLE_EQ(Us.Median, 0.5e6);
  EXPECT_DOUBLE_EQ(Us.Iqr, 0.75e6 - 0.375e6);
  EXPECT_DOUBLE_EQ(S.time(0).Median, 0.5);
}

TEST(Measure, JsonFlag) {
  std::string Path = "BENCH_x.json";
  char Prog[] = "bench", Bare[] = "--json", WithPath[] = "--json=out.json";
  char *None[] = {Prog};
  EXPECT_FALSE(jsonFlag(1, None, Path));
  EXPECT_EQ(Path, "BENCH_x.json");
  char *Default[] = {Prog, Bare};
  EXPECT_TRUE(jsonFlag(2, Default, Path));
  EXPECT_EQ(Path, "BENCH_x.json");
  char *Named[] = {Prog, WithPath};
  EXPECT_TRUE(jsonFlag(2, Named, Path));
  EXPECT_EQ(Path, "out.json");
  char Bad[] = "--reps=3";
  char *Unknown[] = {Prog, Bad};
  EXPECT_EXIT(jsonFlag(2, Unknown, Path), testing::ExitedWithCode(2),
              "usage: bench");

  // --reps=N only where the bench takes it, and only N >= 1.
  unsigned Reps = 40;
  EXPECT_FALSE(jsonFlag(2, Unknown, Path, &Reps));
  EXPECT_EQ(Reps, 3u);
  char *Both[] = {Prog, Bad, Bare};
  EXPECT_TRUE(jsonFlag(3, Both, Path, &Reps));
  for (const char *Arg : {"--reps=0", "--reps=", "--reps=2x", "--reps=-1",
                          "--reps=99999999999999999999"}) {
    std::string Copy = Arg;
    char *Invalid[] = {Prog, Copy.data()};
    EXPECT_EXIT(jsonFlag(2, Invalid, Path, &Reps), testing::ExitedWithCode(2),
                "usage: bench \\[--json\\[=PATH\\]\\] \\[--reps=N\\]")
        << Arg;
  }
}

TEST(Measure, SinkBuildsAtO3AndKeepsValues) {
  // The shapes interp_throughput's counter variants sink, in the same
  // setting: a shard count captured by a mutable lambda behind a
  // std::function, a reciprocal shard pick, and the loop counter.
  std::vector<uint64_t> Hashes(1024);
  for (size_t I = 0; I < Hashes.size(); ++I)
    Hashes[I] = I * 0x9e3779b97f4a7c15ull;
  uint64_t Sum = 0;
  std::function<void()> Loop = [Shards = uint32_t(8), &Hashes,
                                &Sum]() mutable {
    sink(Shards);
    ppp::serve::ShardSelector Sel(Shards);
    for (size_t K = 0; K < 4096; ++K) {
      uint32_t S = Sel(Hashes[K & 1023]);
      sink(S);
      Sum += S;
      sink(K);
    }
  };
  Loop();
  uint64_t Expect = 0;
  for (size_t K = 0; K < 4096; ++K)
    Expect += ppp::serve::fold32(Hashes[K & 1023]) % 8;
  EXPECT_EQ(Sum, Expect);

  // A value wider than a register goes through memory, unchanged.
  struct Wide {
    uint64_t A, B, C;
  } W{1, 2, 3};
  sink(W);
  EXPECT_EQ(W.A + W.B + W.C, 6u);
}

} // namespace
