//===- fuzz/Invariants.h - Differential invariant checking -----*- C++ -*-===//
///
/// \file
/// The differential oracle at the heart of the fuzzer: run a module
/// clean under the exact tracers, run it instrumented under PP / TPP /
/// PPP, and check every invariant the paper's machinery promises:
///
///  - semantics preserved: instrumented runs return the same value and
///    memory checksum as the clean run;
///  - no out-of-range counter index, ever (invalidCount() == 0);
///  - index ranges: hot indices in [0, NumPaths), poisoned indices in
///    [NumPaths, 3*NumPaths) (the free-poisoning region), and every hot
///    index decodes to a path that round-trips through pathNumberOf();
///  - PP is exact: array-backed counts equal the oracle's exactly, and
///    hash-backed stored counts equal the oracle per path with
///    stored + lost covering the function's total frequency;
///  - event counting preserves path sums: one table increment (stored,
///    lost, poisoned, or cold-checked) per completed path execution, so
///    per-function totals match the oracle exactly when no back edge
///    was disconnected and can only exceed it (splitting) otherwise;
///  - array-backed measured counts never undercount an instrumented
///    path (cold overcounting is allowed, undercounting never);
///  - definite flow is a lower bound: the edge-profile DF estimate of
///    any path never exceeds the oracle frequency of that path;
///  - derived metrics are sane: coverage / accuracy / instrumented
///    fractions all land in [0, 1];
///  - BinaryIO round-trips the module, the edge profile, and the oracle
///    path profile field-identically;
///  - the trace backend is exact: recording on the clean module does
///    not perturb semantics, the recording round-trips through its
///    binary frames, the event stream is invariant under chunk
///    capacity, and decoding reconstructs counters bit-identical to
///    the counter backend for both the pp and ppp plans (so, through
///    pp's exactness, equal to the oracle's path counts);
///  - derived telemetry is exact: for every counter-backend run, the
///    interp.op.* counts derived from the clean edge profile (through
///    lowering's block mapping) sum to the instructions executed.
///
/// Checks accumulate into an InvariantReport instead of asserting so
/// the fuzzer driver can count, shrink, and report failures itself.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_FUZZ_INVARIANTS_H
#define PPP_FUZZ_INVARIANTS_H

#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppp {
namespace fuzz {

/// One failed invariant: which check, and a human-readable detail
/// naming the function/path/index involved.
struct InvariantFailure {
  std::string Check;
  std::string Detail;
};

/// Outcome of running every invariant over one module.
struct InvariantReport {
  std::vector<InvariantFailure> Failures;
  unsigned ChecksRun = 0;

  bool ok() const { return Failures.empty(); }
  void fail(std::string Check, std::string Detail) {
    Failures.push_back({std::move(Check), std::move(Detail)});
  }

  /// One line per failure (truncated after \p MaxLines).
  std::string summary(unsigned MaxLines = 12) const;
};

/// Runs the full differential battery (oracle + PP/TPP/PPP + round
/// trips + metric bounds) over \p M. \p Fuel bounds each interpreter
/// run; a fuel-exhausted run is itself an invariant failure (the
/// generator promises termination).
InvariantReport checkModuleInvariants(const Module &M,
                                      uint64_t Fuel = 50'000'000);

} // namespace fuzz
} // namespace ppp

#endif // PPP_FUZZ_INVARIANTS_H
