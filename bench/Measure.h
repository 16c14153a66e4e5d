//===- bench/Measure.h - The one wall-clock measurement loop ---*- C++ -*-===//
///
/// \file
/// Every wall-clock bench times its work through measure(): the caller
/// hands over N variants (callbacks doing one fixed unit of work each)
/// plus warm-up and timed rep counts. measure() runs the warm-up, then
/// the timed reps in mirrored half-rounds -- one block per variant
/// forward, then one each backward (ABBA for two variants, ABC CBA for
/// three) -- so a machine whose speed drifts linearly charges every
/// variant equally; each block is an untimed lead call and the timed
/// call. It returns every timed call's wall seconds, and the statistics
/// over them are pure functions of those samples:
///
///  - time()/rate(): median and interquartile range per variant;
///  - ratio(): one variant's wall time over another's, as the median of
///    the per-half-round ratios. The two reps of a ratio ran back to
///    back over the same work, so an overhead is never MIPS over
///    different instruction streams.
///
/// Results reach BENCH_*.json files as `<key>`, `<key>.iqr` and
/// `<key>.n` gauges (publish()), which tools/bench_diff.py gates on: a
/// key fails only when it moves past a 10% floor and past 3x the larger
/// IQR / sqrt(n), the spread of the median rather than of one sample.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_BENCH_MEASURE_H
#define PPP_BENCH_MEASURE_H

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace ppp {
namespace bench {

/// Median, interquartile range and size of a sample set.
struct Spread {
  double Median = 0;
  double Iqr = 0;
  size_t N = 0;
};

/// Linear-interpolated median and p75 - p25 of \p Samples ({0, 0, 0}
/// when empty).
Spread spreadOf(std::vector<double> Samples);

/// The mean of several spreads, median by median and IQR by IQR, with
/// the smallest N (the `average.*` row of a multi-benchmark report).
Spread meanOf(const std::vector<Spread> &Spreads);

/// Timed wall seconds, Secs[variant][rep]. Rep I of every variant ran in
/// the same half-round, back to back with the others.
struct Samples {
  std::vector<std::vector<double>> Secs;

  /// Seconds x \p Scale of every rep of \p V (Scale = 1e6 gives
  /// microseconds).
  Spread time(size_t V, double Scale = 1) const;
  /// Work / seconds of every rep of \p V (e.g. Work = instructions/1e6
  /// gives MIPS).
  Spread rate(size_t V, double Work) const;
  /// Variant \p V's wall time over variant \p Base's, per half-round:
  /// above 1 means \p V is slower on the same work.
  Spread ratio(size_t V, size_t Base = 0) const;
};

/// Variant index of every call, in order, for \p HalfRounds mirrored
/// half-rounds over \p NumVariants variants: 0..N-1, N-1..0, 0..N-1, ...
std::vector<size_t> mirroredOrder(size_t NumVariants, unsigned HalfRounds);

/// Runs \p Warmup unsampled half-rounds, then \p Reps timed ones, in
/// mirroredOrder(). Each block of a timed half-round is two calls of
/// one variant: an untimed lead call, then the timed one. So every
/// sample starts from caches and branch predictors its own code
/// trained, not from whichever variant ran before it -- without the
/// lead, the variants at the ends of a half-round (which follow
/// themselves across the mirror) gain on the ones in the middle. A
/// variant is called Warmup + 2 * Reps times in all.
Samples measure(const std::vector<std::function<void()>> &Variants,
                unsigned Warmup, unsigned Reps);

/// A compiler barrier for microbenchmark loops: the compiler must assume
/// the empty asm reads and rewrites \p V and touches all memory. So the
/// work that produced \p V is kept, a constant passed in cannot be
/// folded into the code after it, and every store before it happens.
/// A register-sized value may sit in memory or a register; GCC lists
/// memory first because it rejects "+r,m" on some operands once inlined
/// at -O3 ("impossible constraint in 'asm'"). Larger values go through
/// memory. This is google-benchmark's DoNotOptimize choice.
template <typename T> inline void sink(T &V) {
  if constexpr (std::is_trivially_copyable_v<T> &&
                sizeof(T) <= sizeof(void *)) {
#if defined(__clang__)
    asm volatile("" : "+r,m"(V) : : "memory");
#else
    asm volatile("" : "+m,r"(V) : : "memory");
#endif
  } else {
    asm volatile("" : "+m"(V) : : "memory");
  }
}

/// Sets gauges `<Key>` = S.Median, `<Key>.iqr` = S.Iqr and `<Key>.n` =
/// S.N.
void publish(const std::string &Key, const Spread &S);

/// Parses a bench's flags, `--json[=PATH]` and, when \p Reps is given,
/// `--reps=N` (N >= 1): returns whether the report is wanted, with
/// \p Path and \p *Reps (the defaults on entry) updated. Any other
/// argument prints usage and exits 2.
bool jsonFlag(int Argc, char **Argv, std::string &Path,
              unsigned *Reps = nullptr);

/// Writes the metrics registry's keys under \p Prefix to \p Path in the
/// ppp-metrics-v1 schema and prints "wrote PATH"; exits 1 on failure.
void writeReport(const std::string &Path, const std::string &Prefix);

} // namespace bench
} // namespace ppp

#endif // PPP_BENCH_MEASURE_H
