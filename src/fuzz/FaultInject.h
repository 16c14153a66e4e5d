//===- fuzz/FaultInject.h - Frame corruption & clean-failure checks -*-C++-*-===//
///
/// \file
/// Fault injection for the framed binary formats (profile/BinaryIO and
/// trace/TraceIO share the same 24-byte frame: u32 magic, u32 version,
/// u64 payload size, u64 FNV-1a payload checksum, payload).
///
/// Three mutation families:
///  - truncation at an arbitrary byte offset (mid-header included);
///  - blind bit flips (usually die at the checksum -- that they die
///    *cleanly* is the point);
///  - structure-aware corruption: payload bytes are rewritten and the
///    size/checksum fields are refreshed so the frame itself validates,
///    forcing the structural validators behind the frame to do the
///    rejecting. hostileModuleFrames() hand-crafts the worst of these:
///    headers whose element counts (NumFuncs/NumBlocks/NumInstrs/
///    NumTargets/name lengths) demand allocations wildly beyond the
///    bytes actually shipped.
///
/// The acceptance contract checked by runReaderFaultCheck(): a reader
/// handed a mutant must either reject it (false + non-empty error) or
/// accept it with a self-consistent result -- and either way must not
/// grow the process peak RSS by more than MaxReaderRssDeltaKb. Crashes
/// are outside what an in-process checker can catch; the fuzz binaries
/// run under ASan/UBSan in the tier-1 sanitizer stage for exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_FUZZ_FAULTINJECT_H
#define PPP_FUZZ_FAULTINJECT_H

#include "support/Rng.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ppp {
namespace fuzz {

/// Peak resident set size of this process in KiB (getrusage; monotonic
/// high-water mark, never decreases).
long peakRssKb();

/// A reader handed a rejected frame must not have ballooned the peak
/// RSS by more than this (the "no over-allocation" bound): 64 MiB.
inline constexpr long MaxReaderRssDeltaKb = 64 * 1024;

/// False when ASan instruments this build: shadow memory and the
/// malloc quarantine dominate peak RSS there, so the over-allocation
/// bound measures the sanitizer, not the reader. (ASan's own allocator
/// limits catch genuinely absurd allocations instead.)
bool rssBoundMeaningful();

/// One corrupted blob plus what was done to it.
struct FrameMutation {
  std::string What;
  std::string Blob;
};

/// Rewrites the frame's payload-size and checksum fields to match the
/// (possibly edited) payload bytes, so structure-aware mutants survive
/// the frame check. Frames shorter than a header are returned as-is.
std::string refreshFrameChecksum(std::string Frame);

/// Deterministic mutants of \p Frame: \p NumTruncations prefixes,
/// \p NumBitFlips single-bit corruptions, and \p NumStructural
/// payload edits re-checksummed into frame-valid blobs.
std::vector<FrameMutation> mutateFrame(const std::string &Frame, Rng &R,
                                       unsigned NumTruncations,
                                       unsigned NumBitFlips,
                                       unsigned NumStructural);

/// Hand-crafted module frames with valid checksums whose headers claim
/// absurd element counts -- each must be rejected without a large
/// allocation.
std::vector<FrameMutation> hostileModuleFrames();

/// Aggregated outcome of feeding mutants to a reader.
struct FaultStats {
  unsigned Cases = 0;
  unsigned Rejected = 0;
  unsigned Accepted = 0; ///< Reader accepted (mutant decoded consistently).
  std::vector<std::string> Problems;

  bool ok() const { return Problems.empty(); }
};

/// Feeds every mutant to \p Reader and enforces the acceptance
/// contract. \p Reader returns true when it accepted the blob AND its
/// own post-conditions hold (the caller decides what "consistent"
/// means); it returns false for a clean rejection with a non-empty
/// error message, which it reports through \p Error.
FaultStats runReaderFaultCheck(
    const std::vector<FrameMutation> &Mutants,
    const std::function<bool(const std::string &Blob, std::string &Error)>
        &Reader);

} // namespace fuzz
} // namespace ppp

#endif // PPP_FUZZ_FAULTINJECT_H
