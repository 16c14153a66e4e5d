//===- trace/TraceRecorder.h - Hot-loop branch-target recorder -*- C++ -*-===//
///
/// \file
/// The recording half of the trace backend. The interpreter's Trace and
/// TimedTrace dispatch rows call condBit()/switchTarget() at every
/// CondBr/Switch; everything here is header-only so those calls inline
/// into the dispatch loop and the common path is a shift, an OR, and a
/// predictable counter test -- no hashing, no table probe, and (thanks
/// to per-chunk capacity reserved up front) no allocation.
///
/// The byte stream is cut into chunks so the offline decoder can fan
/// out over them (bench::runParallel). A chunk must be independently
/// replayable, so it is sealed only at a *synchronized* point -- no TNT
/// bits pending -- and carries a TraceCursor: the full call-stack
/// position (clean-module coordinates) where its bytes start, plus the
/// switch-delta base. What a cursor cannot carry is the Ball-Larus
/// path register of the frames below it (that would mean tracking path
/// state during recording, the very cost this backend removes); the
/// decoder handles that with symbolic bases resolved at stitch time
/// (TraceDecoder.h).
///
/// Seal discipline (the invariants the decoder relies on):
///  - a TNT byte never spans chunks, and a partial TNT byte is flushed
///    before any switch varint (stream order is event order);
///  - a varint never spans chunks: switchTarget() and costStamp()
///    reserve worst-case space after the flush and seal first when it
///    will not fit;
///  - the cursor of chunk k+1 is exactly where replaying chunk k runs
///    out of bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PPP_TRACE_TRACERECORDER_H
#define PPP_TRACE_TRACERECORDER_H

#include "ir/Instr.h"
#include "obs/Obs.h"
#include "trace/TracePacket.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace ppp {
namespace trace {

/// One activation's resume position in *clean-module* coordinates.
/// Items of a block are its calls in order, then the terminator; Item
/// is the next item to execute (AtTerminator for the terminator, which
/// is where every seal happens for the top frame).
struct TraceCursorFrame {
  FuncId F = -1;
  BlockId Block = -1;
  uint32_t Item = 0;

  static constexpr uint32_t AtTerminator = 0xffffffffu;

  bool operator==(const TraceCursorFrame &O) const = default;
};

/// Where a chunk's bytes start: the live call stack (outermost first)
/// and the previous switch target the first varint's delta is relative
/// to. FreshStart marks the program-entry cursor of chunk 0, whose
/// stack is built by pushing main() rather than restored mid-flight.
struct TraceCursor {
  bool FreshStart = false;
  uint32_t LastSwitchTarget = 0;
  /// Timed recordings only. StartCost is the interpreter's absolute
  /// accumulated cost at the seal point -- filled by the timed dispatch
  /// loop, the only party that sees the cost counter -- and
  /// LastStampCost is the absolute cost of the last emitted stamp (the
  /// base the next stamp's delta is relative to, filled by seal() like
  /// LastSwitchTarget). Both stay zero in untimed recordings.
  uint64_t StartCost = 0;
  uint64_t LastStampCost = 0;
  /// Timed recordings only: branch events recorded since the last
  /// emitted stamp when this chunk's bytes start. A Ret stamps only
  /// once StampPeriodEvents have accumulated (between stamps the
  /// decoder's replay determines the cost exactly, so denser stamps
  /// add no information); the decoder needs the count at the chunk
  /// boundary to parse the chunk's Rets unambiguously.
  uint32_t EventsSinceStamp = 0;
  std::vector<TraceCursorFrame> Frames;

  bool operator==(const TraceCursor &O) const = default;
};

/// One sealed run of packet bytes plus the cursor they start at.
struct TraceChunk {
  TraceCursor Cursor;
  std::vector<uint8_t> Bytes;

  bool operator==(const TraceChunk &O) const = default;
};

/// A whole recorded run.
struct TraceRecording {
  std::vector<TraceChunk> Chunks;
  uint64_t CondEvents = 0;
  uint64_t SwitchEvents = 0;
  uint64_t StampEvents = 0;
  uint64_t TotalBytes = 0;
  /// False when the run aborted (fuel); the decoder then accepts a
  /// stream that ends mid-program.
  bool Complete = false;
  /// True when the stream carries cost-stamp varints at due Rets.
  bool Timed = false;
  /// Producer-stamped provenance, serialized in the header frame.
  /// PipelineVersion is the recording producer's PrepPipelineVersion;
  /// CostModelKey is CostModel::key() of the model the recording run
  /// charged (the interpreter stamps it at finishRun). Zero means
  /// unstamped (hand-built test recordings); a timed decode rejects a
  /// nonzero key that disagrees with its own cost model up front.
  uint32_t PipelineVersion = 0;
  uint64_t CostModelKey = 0;

  bool operator==(const TraceRecording &O) const = default;
};

/// Default chunk capacity: big enough to amortize seal bookkeeping
/// (~400k branch outcomes per chunk), small enough that every suite
/// benchmark yields plenty of decode parallelism.
inline constexpr uint32_t DefaultTraceChunkBytes = 1u << 16;

/// Appends branch-target packets for one run. One-shot: record, call
/// finishRun(), then takeRecording(). The interpreter owns the seal
/// decision because only it can capture the cursor (it sees the call
/// stack); the recorder exposes the "would this append overflow the
/// chunk?" tests as cheap inlined predicates.
class TraceRecorder {
public:
  explicit TraceRecorder(uint32_t ChunkBytes = DefaultTraceChunkBytes,
                         bool Timestamps = false)
      : ChunkCap(ChunkBytes < MinTraceChunkBytes ? MinTraceChunkBytes
                                                 : ChunkBytes),
        Timed(Timestamps) {
    Bytes.reserve(ChunkCap + MaxSwitchVarintBytes);
    CurCursor.FreshStart = true;
  }

  /// True when this recorder emits a cost-stamp varint at every Ret
  /// (the interpreter selects its TimedTrace dispatch row off this
  /// flag).
  bool timestampsEnabled() const { return Timed; }

  /// True when the next condBit() must be preceded by seal(): the
  /// chunk is full and no TNT byte is open (a synchronized point).
  bool needSealBeforeCond() const {
    return NPending == 0 && Bytes.size() >= ChunkCap;
  }

  /// Records one conditional-branch outcome (\p Taken = successor 0).
  void condBit(bool Taken) {
    ++CondEvents;
    ++EventsSinceStamp;
    Pending |= static_cast<uint8_t>(Taken) << NPending;
    if (++NPending == TntBitsPerByte)
      flushPending();
  }

  /// Flushes any partial TNT byte (switch packets and the end of the
  /// run are stream-ordered after the outcomes already recorded) and
  /// reports whether the worst-case varint still fits; when it does
  /// not, the caller must seal() before switchTarget(). The flushed
  /// byte always fits: a byte of capacity is reserved while bits are
  /// pending.
  bool needSealBeforeSwitch() {
    flushPending();
    return Bytes.size() + MaxSwitchVarintBytes > Bytes.capacity();
  }

  /// Records one switch successor index as a zigzag varint delta
  /// against the previous switch target.
  void switchTarget(uint32_t SuccIdx) {
    assert(NPending == 0 && "switch packet with TNT bits pending");
    ++SwitchEvents;
    ++EventsSinceStamp;
    uint64_t Z = zigzagEncode(static_cast<int64_t>(SuccIdx) -
                              static_cast<int64_t>(LastSwitch));
    LastSwitch = SuccIdx;
    do {
      uint8_t B = Z & 0x3fu;
      Z >>= 6;
      if (Z)
        B |= 0x40u;
      Bytes.push_back(B);
    } while (Z);
  }

  /// Flushes any partial TNT byte and reports whether the worst-case
  /// cost-stamp varint still fits; when it does not, the caller must
  /// seal() before costStamp(). Identical discipline to
  /// needSealBeforeSwitch() -- the stamp shares the varint wire shape.
  bool needSealBeforeStamp() {
    flushPending();
    return Bytes.size() + MaxSwitchVarintBytes > Bytes.capacity();
  }

  /// True when the next Ret must emit a cost stamp: at least
  /// StampPeriodEvents branch events have accumulated since the
  /// previous stamp. Until then the decoder's deterministic replay
  /// reproduces the cost delta exactly and a stamp would validate
  /// nothing new -- the timed dispatch loop skips it, which keeps both
  /// stamp traffic and the partial-TNT flush each stamp forces to a
  /// small fraction of the outcome stream.
  bool stampDue() const { return EventsSinceStamp >= StampPeriodEvents; }

  /// Records one cost stamp: the zigzag varint delta between \p
  /// TotalCost (the interpreter's accumulated cost at this Ret) and
  /// the previous stamp. The cost counter is monotonic, so deltas are
  /// never negative on a genuine stream. Only legal while due;
  /// stamping restarts the event count toward the next period.
  void costStamp(uint64_t TotalCost) {
    assert(NPending == 0 && "stamp packet with TNT bits pending");
    assert(TotalCost >= LastStamp && "cost counter ran backwards");
    assert(stampDue() && "stamp at a ret before the period elapsed");
    EventsSinceStamp = 0;
    ++StampEvents;
    uint64_t Z = zigzagEncode(static_cast<int64_t>(TotalCost - LastStamp));
    LastStamp = TotalCost;
    do {
      uint8_t B = Z & 0x3fu;
      Z >>= 6;
      if (Z)
        B |= 0x40u;
      Bytes.push_back(B);
      ++StampBytes;
    } while (Z);
  }

  /// Seals the current chunk; \p Next is the cursor where the next
  /// chunk's bytes will start (the caller's current position). Only
  /// legal at a synchronized point.
  void seal(TraceCursor Next) {
    assert(NPending == 0 && "seal with TNT bits pending");
    Next.LastSwitchTarget = LastSwitch;
    Next.LastStampCost = LastStamp;
    // The event count is tracked unconditionally (condBit() stays
    // branch-free) but is only meaningful -- and only serialized --
    // for timed streams.
    Next.EventsSinceStamp = Timed ? EventsSinceStamp : 0;
    Rec.Chunks.push_back({std::move(CurCursor), std::move(Bytes)});
    Bytes = {};
    Bytes.reserve(ChunkCap + MaxSwitchVarintBytes);
    CurCursor = std::move(Next);
  }

  /// Ends the run: flushes, seals the final chunk, publishes the
  /// trace.record.* counters, and returns the total packet bytes (the
  /// quantity the cost model charges, CostModel::TraceByte each).
  uint64_t finishRun(bool Complete) {
    assert(!Finished && "TraceRecorder is one-shot");
    Finished = true;
    flushPending();
    Rec.Chunks.push_back({std::move(CurCursor), std::move(Bytes)});
    Bytes = {};
    Rec.CondEvents = CondEvents;
    Rec.SwitchEvents = SwitchEvents;
    Rec.StampEvents = StampEvents;
    Rec.Complete = Complete;
    Rec.Timed = Timed;
    Rec.TotalBytes = 0;
    for (const TraceChunk &C : Rec.Chunks)
      Rec.TotalBytes += C.Bytes.size();
    obs::counter("trace.record.runs").inc();
    obs::counter("trace.record.cond_events").inc(CondEvents);
    obs::counter("trace.record.switch_events").inc(SwitchEvents);
    obs::counter("trace.record.bytes").inc(Rec.TotalBytes);
    obs::counter("trace.record.chunks").inc(Rec.Chunks.size());
    if (Timed) {
      obs::counter("trace.record.stamp_events").inc(StampEvents);
      obs::counter("trace.record.stamp_bytes").inc(StampBytes);
    }
    return Rec.TotalBytes;
  }

  /// Provenance stamps (TraceRecording::PipelineVersion/CostModelKey).
  /// The interpreter stamps the cost-model key at finishRun; the
  /// serializing producer stamps its pipeline version. Either may be
  /// left zero (unstamped).
  void setPipelineVersion(uint32_t V) { Rec.PipelineVersion = V; }
  void setCostModelKey(uint64_t K) { Rec.CostModelKey = K; }

  /// The finished recording (finishRun() first).
  const TraceRecording &recording() const {
    assert(Finished && "recording() before finishRun()");
    return Rec;
  }

  TraceRecording takeRecording() {
    assert(Finished && "takeRecording() before finishRun()");
    return std::move(Rec);
  }

  uint64_t condEvents() const { return CondEvents; }
  uint64_t switchEvents() const { return SwitchEvents; }
  uint64_t stampEvents() const { return StampEvents; }
  /// Bytes spent on cost stamps (a subset of the total packet bytes);
  /// the cost model prices them at TraceStampByte instead of
  /// TraceByte.
  uint64_t stampBytes() const { return StampBytes; }

  /// Floor for ChunkBytes: one varint reserve must never eat the whole
  /// chunk (tests use tiny chunks to stress the seal/stitch paths).
  static constexpr uint32_t MinTraceChunkBytes = 16;

private:
  void flushPending() {
    if (NPending == 0)
      return;
    Bytes.push_back(packTnt(Pending, NPending));
    Pending = 0;
    NPending = 0;
  }

  uint32_t ChunkCap;
  std::vector<uint8_t> Bytes; ///< Current chunk, capacity reserved.
  uint8_t Pending = 0;        ///< Partial TNT byte being filled.
  unsigned NPending = 0;
  uint32_t LastSwitch = 0;
  uint64_t LastStamp = 0;
  uint32_t EventsSinceStamp = 0;
  TraceCursor CurCursor;
  TraceRecording Rec;
  uint64_t CondEvents = 0;
  uint64_t SwitchEvents = 0;
  uint64_t StampEvents = 0;
  uint64_t StampBytes = 0;
  bool Timed = false;
  bool Finished = false;
};

} // namespace trace
} // namespace ppp

#endif // PPP_TRACE_TRACERECORDER_H
