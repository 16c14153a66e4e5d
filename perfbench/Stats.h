//===- perfbench/Stats.h - Clocks and quantiles ----------------*- C++ -*-===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds since an arbitrary process-wide origin.
uint64_t nowNs();

inline double msBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e6;
}

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (0 when empty).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// The highest percentile of p95, p90 and p75 that still has at least
/// ten samples beyond it (p50 if none has), and its value. Nothing above
/// p95: an online rotation mixes 128 (module, profiler) pairs, and in its
/// top 1% a single pair, so one module's draw, would set the tail.
struct Tail {
  double Percentile = 50;
  double Value = 0;
};
Tail tailOf(const std::vector<double> &V);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

} // namespace pb

#endif // PERFBENCH_STATS_H
