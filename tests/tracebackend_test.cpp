//===- tests/tracebackend_test.cpp - Trace backend tests ----------------------===//
///
/// Pins the trace backend's contracts end to end: the packet format
/// round-trips bit-exactly, the recorder's byte stream is invariant
/// under chunk capacity (chunking is a partition, never a re-encode),
/// recording costs exactly TraceByte per packet byte on top of the
/// clean run, the framed binary form round-trips and rejects corrupt
/// bytes, and -- the core promise -- decoding a recording reconstructs
/// counters bit-identical to running the instrumented module over the
/// counter runtime, sequentially and at any parallel job count, and
/// collect() picks between the two backends without changing the
/// counts.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "interp/Interpreter.h"
#include "obs/Obs.h"
#include "pathprof/Profilers.h"
#include "trace/Collect.h"
#include "trace/PathTiming.h"
#include "trace/TraceDecoder.h"
#include "trace/TraceIO.h"
#include "trace/TracePacket.h"
#include "workload/Suite.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

using namespace ppp;
using namespace ppp::bench;
using namespace ppp::trace;

namespace {

TEST(TracePacket, TntRoundTripsEveryWidthAndPattern) {
  for (unsigned N = 1; N <= TntBitsPerByte; ++N) {
    for (uint8_t Bits = 0; Bits < (1u << N); ++Bits) {
      uint8_t B = packTnt(Bits, N);
      EXPECT_TRUE(isTntByte(B));
      uint8_t OutBits = 0;
      unsigned OutN = 0;
      ASSERT_TRUE(unpackTnt(B, OutBits, OutN));
      EXPECT_EQ(OutN, N);
      EXPECT_EQ(OutBits, Bits);
    }
  }
}

TEST(TracePacket, MalformedTntBytesRejected) {
  uint8_t Bits = 0;
  unsigned N = 0;
  // Bit 7 clear: a varint byte, not a TNT packet.
  EXPECT_FALSE(isTntByte(0x3f));
  EXPECT_FALSE(unpackTnt(0x3f, Bits, N));
  // Tag with an empty body: no stop bit to delimit the count.
  EXPECT_FALSE(unpackTnt(0x80, Bits, N));
}

TEST(TracePacket, ZigzagRoundTrips) {
  for (int64_t V : {int64_t(0), int64_t(1), int64_t(-1), int64_t(63),
                    int64_t(-64), int64_t(1) << 31, -(int64_t(1) << 31),
                    int64_t(0x7fffffffffffffff),
                    int64_t(-0x7fffffffffffffff - 1)}) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(V)), V) << V;
  }
  // Small magnitudes stay small: one 6-bit varint group.
  EXPECT_LT(zigzagEncode(0), 64u);
  EXPECT_LT(zigzagEncode(-32), 64u);
  EXPECT_LT(zigzagEncode(31), 64u);
}

TEST(TraceRecorder, PacksTntBitsLsbFirst) {
  TraceRecorder R;
  R.condBit(true);
  R.condBit(false);
  R.condBit(true);
  R.finishRun(true);
  ASSERT_EQ(R.recording().Chunks.size(), 1u);
  const std::vector<uint8_t> &Bytes = R.recording().Chunks[0].Bytes;
  ASSERT_EQ(Bytes.size(), 1u);
  EXPECT_EQ(Bytes[0], packTnt(0b101, 3));
}

TEST(TraceRecorder, SwitchTargetsAreDeltaCoded) {
  TraceRecorder R;
  R.switchTarget(5); // delta +5  -> zigzag 10
  R.switchTarget(5); // delta  0  -> zigzag 0
  R.switchTarget(3); // delta -2  -> zigzag 3
  R.finishRun(true);
  ASSERT_EQ(R.recording().Chunks.size(), 1u);
  EXPECT_EQ(R.recording().Chunks[0].Bytes,
            (std::vector<uint8_t>{10, 0, 3}));
}

TEST(TraceRecorder, PendingBitsFlushBeforeSwitchPacket) {
  TraceRecorder R;
  R.condBit(true);
  EXPECT_FALSE(R.needSealBeforeSwitch()); // Flushes the partial byte.
  R.switchTarget(2);
  R.finishRun(true);
  const std::vector<uint8_t> &Bytes = R.recording().Chunks[0].Bytes;
  ASSERT_EQ(Bytes.size(), 2u);
  EXPECT_EQ(Bytes[0], packTnt(0b1, 1));
  EXPECT_EQ(Bytes[1], 4u); // zigzag(+2)
}

/// Chunk capacity must partition the byte stream, never change it: the
/// same event sequence recorded at two capacities concatenates to the
/// same bytes, and every chunk stays within capacity + varint reserve.
TEST(TraceRecorder, ChunkCapacityPartitionsTheSameByteStream) {
  auto Record = [](uint32_t Cap) {
    TraceRecorder R(Cap);
    uint64_t X = 0x9e3779b97f4a7c15ull;
    for (int I = 0; I < 5000; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      if ((X >> 33) % 5 == 0) {
        if (R.needSealBeforeSwitch())
          R.seal(TraceCursor{});
        R.switchTarget(static_cast<uint32_t>((X >> 40) % 23));
      } else {
        if (R.needSealBeforeCond())
          R.seal(TraceCursor{});
        R.condBit((X >> 20) & 1);
      }
    }
    R.finishRun(true);
    return R.takeRecording();
  };

  TraceRecording Small = Record(TraceRecorder::MinTraceChunkBytes);
  TraceRecording Big = Record(1u << 16);
  EXPECT_GT(Small.Chunks.size(), 10u);
  EXPECT_EQ(Big.Chunks.size(), 1u);
  EXPECT_EQ(Small.CondEvents, Big.CondEvents);
  EXPECT_EQ(Small.SwitchEvents, Big.SwitchEvents);
  EXPECT_EQ(Small.TotalBytes, Big.TotalBytes);

  std::vector<uint8_t> Cat;
  for (const TraceChunk &C : Small.Chunks) {
    EXPECT_LE(C.Bytes.size(),
              TraceRecorder::MinTraceChunkBytes + MaxSwitchVarintBytes);
    Cat.insert(Cat.end(), C.Bytes.begin(), C.Bytes.end());
  }
  EXPECT_EQ(Cat, Big.Chunks[0].Bytes);
}

/// Cost stamps share the switch varint's wire shape: zigzag deltas in
/// 6-bit groups. A zero delta (two stamps at the same accumulated
/// cost) is exactly one byte.
TEST(TraceRecorder, CostStampsDeltaCodeAndZeroDeltaIsOneByte) {
  TraceRecorder R(DefaultTraceChunkBytes, true);
  EXPECT_TRUE(R.timestampsEnabled());
  R.costStamp(5);  // delta +5  -> zigzag 10
  R.costStamp(5);  // delta  0  -> zigzag 0, one byte
  R.costStamp(70); // delta +65 -> zigzag 130, two bytes
  R.finishRun(true);
  ASSERT_EQ(R.recording().Chunks.size(), 1u);
  EXPECT_EQ(R.recording().Chunks[0].Bytes,
            (std::vector<uint8_t>{10, 0, 0x42, 2}));
  EXPECT_EQ(R.recording().StampEvents, 3u);
  EXPECT_TRUE(R.recording().Timed);
  EXPECT_EQ(R.stampBytes(), 4u);
}

/// The largest representable stamp delta (INT64_MAX; anything bigger
/// would zigzag to a negative delta the decoder rejects) fits the
/// 11-byte varint cap and round-trips through the group encoding.
TEST(TraceRecorder, MaximalStampDeltaFitsElevenBytesAndRoundTrips) {
  TraceRecorder R(DefaultTraceChunkBytes, true);
  R.costStamp(0); // delta 0
  R.costStamp(static_cast<uint64_t>(INT64_MAX));
  R.finishRun(true);
  const std::vector<uint8_t> &Bytes = R.recording().Chunks[0].Bytes;
  ASSERT_EQ(Bytes.size(), 1u + MaxSwitchVarintBytes);
  EXPECT_EQ(Bytes[0], 0u);
  // Decode the varint by hand and undo the zigzag.
  uint64_t Z = 0;
  unsigned Shift = 0;
  for (size_t I = 1; I < Bytes.size(); ++I) {
    EXPECT_FALSE(isTntByte(Bytes[I])) << I;
    Z |= static_cast<uint64_t>(Bytes[I] & 0x3f) << Shift;
    Shift += 6;
    if (!(Bytes[I] & 0x40)) {
      EXPECT_EQ(I, Bytes.size() - 1);
      break;
    }
  }
  EXPECT_EQ(zigzagDecode(Z), INT64_MAX);
}

/// Stamp varints must never span a chunk seal: needSealBeforeStamp()
/// reserves worst-case space exactly like the switch path, so chunking
/// partitions the same byte stream without re-encoding any stamp, and
/// every chunk stays within capacity + varint reserve.
TEST(TraceRecorder, StampVarintsNeverSpanChunkSeals) {
  auto Record = [](uint32_t Cap) {
    TraceRecorder R(Cap, true);
    uint64_t X = 0x9e3779b97f4a7c15ull;
    uint64_t Cost = 0;
    for (int I = 0; I < 5000; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      if ((X >> 33) % 4 == 0 && R.stampDue()) {
        // Vary the delta magnitude so stamps of every byte width land
        // near seal points.
        Cost += (X >> 40) % 3 == 0 ? (X >> 24) : (X >> 58);
        if (R.needSealBeforeStamp())
          R.seal(TraceCursor{});
        R.costStamp(Cost);
      } else {
        if (R.needSealBeforeCond())
          R.seal(TraceCursor{});
        R.condBit((X >> 20) & 1);
      }
    }
    R.finishRun(true);
    return R.takeRecording();
  };

  TraceRecording Small = Record(TraceRecorder::MinTraceChunkBytes);
  TraceRecording Big = Record(1u << 20);
  EXPECT_GT(Small.Chunks.size(), 10u);
  EXPECT_EQ(Big.Chunks.size(), 1u);
  EXPECT_EQ(Small.StampEvents, Big.StampEvents);
  EXPECT_EQ(Small.TotalBytes, Big.TotalBytes);

  std::vector<uint8_t> Cat;
  for (const TraceChunk &C : Small.Chunks) {
    EXPECT_LE(C.Bytes.size(),
              TraceRecorder::MinTraceChunkBytes + MaxSwitchVarintBytes);
    Cat.insert(Cat.end(), C.Bytes.begin(), C.Bytes.end());
  }
  EXPECT_EQ(Cat, Big.Chunks[0].Bytes);
}

TEST(TraceIO, RoundTripsFieldIdentically) {
  TraceRecorder R(TraceRecorder::MinTraceChunkBytes);
  for (int I = 0; I < 200; ++I) {
    if (I % 7 == 0) {
      if (R.needSealBeforeSwitch())
        R.seal(TraceCursor{false, 0, 0, 0, 0, {{2, 1, 0}, {3, 4, 5}}});
      R.switchTarget(static_cast<uint32_t>(I % 9));
    } else {
      if (R.needSealBeforeCond())
        R.seal(TraceCursor{false, 0, 0, 0, 0, {{2, 1, 0}, {3, 4, 5}}});
      R.condBit(I & 1);
    }
  }
  R.finishRun(false); // Exercise the incomplete flag too.
  const TraceRecording &Rec = R.recording();

  std::string Blob = writeTraceBinary(Rec);
  TraceRecording Back;
  std::string Err;
  ASSERT_TRUE(readTraceBinary(Blob, Back, Err)) << Err;
  EXPECT_TRUE(Back == Rec);
}

TEST(TraceIO, RejectsTruncationAndBitFlips) {
  TraceRecorder R;
  for (int I = 0; I < 50; ++I)
    R.condBit(I & 1);
  R.switchTarget(7);
  R.finishRun(true);
  std::string Blob = writeTraceBinary(R.recording());

  // Every truncation must be rejected with a non-empty error.
  for (size_t Cut : {size_t(0), size_t(3), size_t(23), size_t(24),
                     Blob.size() / 2, Blob.size() - 1}) {
    ASSERT_LT(Cut, Blob.size());
    TraceRecording Out;
    std::string Err;
    EXPECT_FALSE(readTraceBinary(Blob.substr(0, Cut), Out, Err)) << Cut;
    EXPECT_FALSE(Err.empty()) << Cut;
  }
  // Any flipped bit lands in a checksummed frame: reject, cleanly.
  for (size_t Pos = 0; Pos < Blob.size(); Pos += 5) {
    std::string Bad = Blob;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x10);
    TraceRecording Out;
    std::string Err;
    EXPECT_FALSE(readTraceBinary(Bad, Out, Err)) << Pos;
    EXPECT_FALSE(Err.empty()) << Pos;
  }
}

/// Recording must not perturb execution, and must cost exactly
/// TraceByte per packet byte on top of the clean run.
TEST(TraceBackend, RecordingCostsExactlyTraceBytePerByte) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  PreparedBenchmark B = prepare(Suite[0]);
  InterpOptions IO;
  IO.Costs = B.Costs;

  Interpreter Clean(B.Expanded, IO);
  RunResult RClean = Clean.run();

  Interpreter Traced(B.Expanded, IO);
  TraceRecorder Rec;
  Traced.setTraceRecorder(&Rec);
  RunResult RTraced = Traced.run();

  EXPECT_EQ(RTraced.ReturnValue, RClean.ReturnValue);
  EXPECT_EQ(RTraced.DynInstrs, RClean.DynInstrs);
  EXPECT_EQ(RTraced.MemChecksum, RClean.MemChecksum);
  EXPECT_GT(Rec.recording().TotalBytes, 0u);
  EXPECT_EQ(RTraced.Cost, RClean.Cost + Rec.recording().TotalBytes *
                                            IO.Costs.TraceByte);
}

/// The core promise: decoded counters are bit-identical to the counter
/// backend's, for the exact pp plan and the cold-removing ppp/trace
/// plan, sequentially and on the parallel chunk path, at default and
/// seal-stressing chunk capacities.
TEST(TraceBackend, DecodeIsBitIdenticalToCounterBackend) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  // Branchy INT, call-heavy INT, loopy FP.
  for (size_t Pick : {size_t(0), size_t(4), size_t(12)}) {
    ASSERT_LT(Pick, Suite.size());
    PreparedBenchmark B = prepare(Suite[Pick]);
    InterpOptions IO;
    IO.Costs = B.Costs;

    for (uint32_t Cap : {DefaultTraceChunkBytes, 1024u}) {
      Interpreter I(B.Expanded, IO);
      TraceRecorder TR(Cap);
      I.setTraceRecorder(&TR);
      ASSERT_FALSE(I.run().FuelExhausted);
      TraceRecording Rec = TR.takeRecording();

      for (const ProfilerOptions &Opts :
           {ProfilerOptions::pp(), ProfilerOptions::trace()}) {
        InstrumentationResult IR =
            instrumentModule(B.Expanded, B.EP, Opts);
        ProfileRuntime CounterRT = IR.makeRuntime();
        Interpreter CI(IR.Instrumented, IO);
        CI.setProfileRuntime(&CounterRT);
        ASSERT_FALSE(CI.run().FuelExhausted);
        CountsMessage Want = countsFromRun(B.Name, IR, CounterRT);

        TraceDecoder Dec(B.Expanded, IR);
        ProfileRuntime SeqRT = IR.makeRuntime();
        DecodeStats DS;
        std::string Err;
        ASSERT_TRUE(Dec.decode(Rec, SeqRT, DS, Err))
            << B.Name << " cap=" << Cap << ": " << Err;
        EXPECT_TRUE(countsFromRun(B.Name, IR, SeqRT) == Want)
            << B.Name << " " << Opts.Name << " cap=" << Cap;
        EXPECT_EQ(DS.CondEvents, Rec.CondEvents);
        EXPECT_EQ(DS.SwitchEvents, Rec.SwitchEvents);

        ProfileRuntime ParRT = IR.makeRuntime();
        DecodeStats PDS;
        ASSERT_TRUE(decodeTraceParallel(Dec, Rec, /*Jobs=*/4, ParRT, PDS, Err))
            << B.Name << " cap=" << Cap << ": " << Err;
        EXPECT_TRUE(countsFromRun(B.Name, IR, ParRT) == Want)
            << B.Name << " " << Opts.Name << " cap=" << Cap
            << " (parallel)";
      }
    }
  }
}

/// A recording from one module must not decode against a mismatched
/// plan/module silently: either the decode fails, or (when the streams
/// happen to be structurally compatible) the validated event totals
/// still match the header. Corrupt packet bytes inside an otherwise
/// valid frame must be rejected by the decoder's stream validation.
TEST(TraceBackend, DecoderRejectsCorruptPacketBytes) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  PreparedBenchmark B = prepare(Suite[0]);
  InterpOptions IO;
  IO.Costs = B.Costs;
  Interpreter I(B.Expanded, IO);
  TraceRecorder TR;
  I.setTraceRecorder(&TR);
  ASSERT_FALSE(I.run().FuelExhausted);
  TraceRecording Rec = TR.takeRecording();

  InstrumentationResult IR =
      instrumentModule(B.Expanded, B.EP, ProfilerOptions::trace());
  TraceDecoder Dec(B.Expanded, IR);

  // Truncating the last chunk's bytes desynchronizes the stream from
  // the header totals: the decoder must notice.
  TraceRecording Cut = Rec;
  ASSERT_FALSE(Cut.Chunks.empty());
  ASSERT_FALSE(Cut.Chunks.back().Bytes.empty());
  Cut.Chunks.back().Bytes.pop_back();
  Cut.TotalBytes -= 1;
  ProfileRuntime RT = IR.makeRuntime();
  DecodeStats DS;
  std::string Err;
  EXPECT_FALSE(Dec.decode(Cut, RT, DS, Err));
  EXPECT_FALSE(Err.empty());

  // Lying about the event totals must fail the final cross-check.
  TraceRecording Lie = Rec;
  Lie.CondEvents += 1;
  ProfileRuntime RT2 = IR.makeRuntime();
  DecodeStats DS2;
  Err.clear();
  EXPECT_FALSE(Dec.decode(Lie, RT2, DS2, Err));
  EXPECT_FALSE(Err.empty());
}

/// A timed recording round-trips through the framed binary form with
/// its stamp totals, timed flag, and cursor cost bases intact.
TEST(TraceIO, TimedRecordingRoundTripsFieldIdentically) {
  TraceRecorder R(TraceRecorder::MinTraceChunkBytes, true);
  uint64_t Cost = 0;
  for (int I = 0; I < 300; ++I) {
    // Stamps only when due: the recorder requires StampPeriodEvents
    // branch events between stamps, like the interpreter's Ret path.
    if (I % 5 == 0 && R.stampDue()) {
      Cost += static_cast<uint64_t>(I) * 37 + 1;
      if (R.needSealBeforeStamp()) {
        TraceCursor Cur{false, 0, 0, 0, 0, {{2, 1, 0}, {3, 4, 5}}};
        Cur.StartCost = Cost;
        R.seal(std::move(Cur));
      }
      R.costStamp(Cost);
    } else {
      if (R.needSealBeforeCond()) {
        TraceCursor Cur{false, 0, 0, 0, 0, {{2, 1, 0}, {3, 4, 5}}};
        Cur.StartCost = Cost;
        R.seal(std::move(Cur));
      }
      R.condBit(I & 1);
    }
  }
  R.finishRun(true);
  R.setPipelineVersion(7);
  R.setCostModelKey(0x1234abcdu);
  const TraceRecording &Rec = R.recording();
  EXPECT_TRUE(Rec.Timed);
  EXPECT_GT(Rec.StampEvents, 0u);
  EXPECT_EQ(Rec.PipelineVersion, 7u);
  EXPECT_EQ(Rec.CostModelKey, 0x1234abcdu);

  std::string Blob = writeTraceBinary(Rec);
  TraceRecording Back;
  std::string Err;
  ASSERT_TRUE(readTraceBinary(Blob, Back, Err)) << Err;
  EXPECT_TRUE(Back == Rec);

  // An untimed recording claiming stamps is structurally inconsistent.
  TraceRecording Lie = Rec;
  Lie.Timed = false;
  TraceRecording Out;
  Err.clear();
  EXPECT_FALSE(readTraceBinary(writeTraceBinary(Lie), Out, Err));
  EXPECT_FALSE(Err.empty());
}

/// Records one benchmark with timestamps and returns the recording plus
/// the clean (unrecorded) run cost the attribution must conserve.
struct TimedRun {
  PreparedBenchmark B;
  TraceRecording Rec;
  uint64_t CleanCost = 0;
  uint64_t StampBytes = 0;
};

TimedRun recordTimed(size_t Pick, uint32_t Cap) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  TimedRun T{prepare(Suite.at(Pick)), {}, 0, 0};
  InterpOptions IO;
  IO.Costs = T.B.Costs;

  Interpreter Clean(T.B.Expanded, IO);
  T.CleanCost = Clean.run().Cost;

  Interpreter I(T.B.Expanded, IO);
  TraceRecorder TR(Cap, true);
  I.setTraceRecorder(&TR);
  EXPECT_FALSE(I.run().FuelExhausted);
  T.StampBytes = TR.stampBytes();
  T.Rec = TR.takeRecording();
  return T;
}

/// Timed recording prices stamp bytes at TraceStampByte and everything
/// else at TraceByte, on top of the unchanged clean execution.
TEST(TraceBackend, TimedRecordingCostsStampBytesSeparately) {
  std::vector<BenchmarkSpec> Suite = spec2000Suite();
  PreparedBenchmark B = prepare(Suite[0]);
  InterpOptions IO;
  IO.Costs = B.Costs;

  Interpreter Clean(B.Expanded, IO);
  RunResult RClean = Clean.run();

  Interpreter Timed(B.Expanded, IO);
  TraceRecorder Rec(DefaultTraceChunkBytes, true);
  Timed.setTraceRecorder(&Rec);
  RunResult RTimed = Timed.run();

  EXPECT_EQ(RTimed.ReturnValue, RClean.ReturnValue);
  EXPECT_EQ(RTimed.DynInstrs, RClean.DynInstrs);
  EXPECT_EQ(RTimed.MemChecksum, RClean.MemChecksum);
  uint64_t Stamp = Rec.stampBytes();
  uint64_t Total = Rec.recording().TotalBytes;
  EXPECT_GT(Stamp, 0u);
  EXPECT_GT(Total, Stamp);
  EXPECT_EQ(RTimed.Cost, RClean.Cost + (Total - Stamp) * IO.Costs.TraceByte +
                             Stamp * IO.Costs.TraceStampByte);
}

/// The tentpole contract: a timed decode reconstructs path counts
/// bit-identical to the counter backend (timing is a pure annotation),
/// and the attributed + unattributed cost equals the interpreter's
/// clean run cost exactly -- sequentially and on the parallel chunk
/// path, at a seal-stressing capacity too. Histograms are internally
/// consistent: buckets sum to the path's count.
TEST(TraceBackend, TimedDecodeBitIdenticalAndConservesCost) {
  for (size_t Pick : {size_t(0), size_t(4)}) {
    for (uint32_t Cap : {DefaultTraceChunkBytes, 1024u}) {
      TimedRun T = recordTimed(Pick, Cap);
      InterpOptions IO;
      IO.Costs = T.B.Costs;

      InstrumentationResult IR =
          instrumentModule(T.B.Expanded, T.B.EP, ProfilerOptions::trace());
      ProfileRuntime CounterRT = IR.makeRuntime();
      Interpreter CI(IR.Instrumented, IO);
      CI.setProfileRuntime(&CounterRT);
      ASSERT_FALSE(CI.run().FuelExhausted);
      CountsMessage Want = countsFromRun(T.B.Name, IR, CounterRT);

      TraceDecoder Dec(T.B.Expanded, IR, T.B.Costs);
      ProfileRuntime SeqRT = IR.makeRuntime();
      DecodeStats DS;
      std::string Err;
      PathTimingProfile Timing;
      ASSERT_TRUE(Dec.decode(T.Rec, SeqRT, DS, Err, &Timing))
          << T.B.Name << " cap=" << Cap << ": " << Err;
      Timing.finishPhases();
      EXPECT_TRUE(countsFromRun(T.B.Name, IR, SeqRT) == Want)
          << T.B.Name << " cap=" << Cap;
      EXPECT_EQ(DS.StampEvents, T.Rec.StampEvents);

      // Conservation: every replayed cost unit is attributed to exactly
      // one path execution or the explicit unattributed bucket, and the
      // replayed total is the clean run's cost (stamp/trace byte
      // charges are priced after the loop, not inside it).
      EXPECT_EQ(Timing.totalCost(), T.CleanCost) << T.B.Name;
      EXPECT_EQ(Timing.attributedCost() + Timing.unattributedCost(),
                Timing.totalCost())
          << T.B.Name << " cap=" << Cap;
      EXPECT_GT(Timing.attributedCost(), 0u);

      for (const auto &KV : Timing.paths()) {
        const PathTimingEntry &E = KV.second;
        uint64_t BucketSum = 0;
        for (uint64_t Bkt : E.Buckets)
          BucketSum += Bkt;
        EXPECT_EQ(BucketSum, E.Count);
        EXPECT_LE(E.MinCost, E.MaxCost);
        EXPECT_LE(E.MaxCost, E.TotalCost);
      }

      // Parallel decode: identical counts and identical attribution.
      ProfileRuntime ParRT = IR.makeRuntime();
      DecodeStats PDS;
      PathTimingProfile ParTiming;
      ASSERT_TRUE(decodeTraceParallel(Dec, T.Rec, /*Jobs=*/4, ParRT, PDS, Err,
                                      &ParTiming))
          << T.B.Name << " cap=" << Cap << ": " << Err;
      ParTiming.finishPhases();
      EXPECT_TRUE(countsFromRun(T.B.Name, IR, ParRT) == Want)
          << T.B.Name << " cap=" << Cap << " (parallel)";
      EXPECT_TRUE(ParTiming.paths() == Timing.paths())
          << T.B.Name << " cap=" << Cap;
      EXPECT_EQ(ParTiming.totalCost(), Timing.totalCost());
      EXPECT_EQ(ParTiming.unattributedCost(), Timing.unattributedCost());
    }
  }
}

/// Every prefix truncation of a timed recording's final chunk must fail
/// the decode: mid-varint cuts are caught by the stamp reader, clean
/// packet-boundary cuts by the completeness and stamp-total checks.
TEST(TraceBackend, TruncatedTimedFramesAlwaysRejected) {
  TimedRun T = recordTimed(0, TraceRecorder::MinTraceChunkBytes);
  ASSERT_TRUE(T.Rec.Complete);
  InstrumentationResult IR =
      instrumentModule(T.B.Expanded, T.B.EP, ProfilerOptions::trace());
  TraceDecoder Dec(T.B.Expanded, IR, T.B.Costs);

  const std::vector<uint8_t> Full = T.Rec.Chunks.back().Bytes;
  ASSERT_GT(Full.size(), 2u);
  for (size_t Keep = 0; Keep < Full.size(); ++Keep) {
    TraceRecording Cut = T.Rec;
    Cut.Chunks.back().Bytes.assign(Full.begin(), Full.begin() + Keep);
    Cut.TotalBytes -= Full.size() - Keep;
    ProfileRuntime RT = IR.makeRuntime();
    DecodeStats DS;
    std::string Err;
    PathTimingProfile Timing;
    EXPECT_FALSE(Dec.decode(Cut, RT, DS, Err, &Timing)) << Keep;
    EXPECT_FALSE(Err.empty()) << Keep;
  }
}

/// A timed stream decoded under a disagreeing cost model must be
/// rejected: the provenance key catches a stamped recording up front,
/// and an unstamped one still fails at the first disagreeing stamp.
TEST(TraceBackend, TimedDecodeRejectsCostModelMismatch) {
  TimedRun T = recordTimed(0, DefaultTraceChunkBytes);
  EXPECT_EQ(T.Rec.CostModelKey, T.B.Costs.key()); // Interpreter-stamped.
  InstrumentationResult IR =
      instrumentModule(T.B.Expanded, T.B.EP, ProfilerOptions::trace());
  CostModel Wrong = T.B.Costs;
  Wrong.Mul += 7;
  EXPECT_NE(Wrong.key(), T.B.Costs.key());
  TraceDecoder Dec(T.B.Expanded, IR, Wrong);
  ProfileRuntime RT = IR.makeRuntime();
  DecodeStats DS;
  std::string Err;
  PathTimingProfile Timing;
  EXPECT_FALSE(Dec.decode(T.Rec, RT, DS, Err, &Timing));
  EXPECT_NE(Err.find("cost-model key"), std::string::npos) << Err;

  TraceRecording Anon = T.Rec;
  Anon.CostModelKey = 0;
  ProfileRuntime RT2 = IR.makeRuntime();
  Err.clear();
  EXPECT_FALSE(Dec.decode(Anon, RT2, DS, Err, &Timing));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Err.find("cost-model key"), std::string::npos) << Err;
}

/// collect() dispatches on the plan's backend: under trace and
/// trace+time it must fill a runtime equal, table by table, to the one
/// the counter backend fills under ppp (the same plan), and report the
/// recording run's cost -- exactly a hand-wired recorder run's, and
/// never the counter run's.
TEST(Collect, TraceBackendsFillTheCounterBackendsTables) {
  for (const char *Name : {"vpr", "perlbmk", "crafty"}) {
    std::optional<BenchmarkSpec> Spec = findBenchmark(Name);
    ASSERT_TRUE(Spec) << Name;
    PreparedBenchmark B = prepare(*Spec);
    InterpOptions IO;
    IO.Costs = B.Costs;

    InstrumentationResult CounterIR =
        instrumentModule(B.Expanded, B.EP, ProfilerOptions::ppp());
    ProfileRuntime Want = CounterIR.makeRuntime();
    RunResult CounterRes;
    std::string Err;
    ASSERT_TRUE(collect(B.Expanded, CounterIR, IO, Want, CounterRes, Err))
        << Name << ": " << Err;

    for (const ProfilerOptions &Opts :
         {ProfilerOptions::trace(), ProfilerOptions::traceTimed()}) {
      InstrumentationResult IR = instrumentModule(B.Expanded, B.EP, Opts);
      ProfileRuntime RT = IR.makeRuntime();
      RunResult Res;
      PathTimingProfile Timing;
      ASSERT_TRUE(collect(B.Expanded, IR, IO, RT, Res, Err, &Timing))
          << Name << " " << Opts.Name << ": " << Err;

      ASSERT_EQ(RT.numFunctions(), Want.numFunctions());
      for (unsigned FI = 0; FI < RT.numFunctions(); ++FI) {
        FuncId F = static_cast<FuncId>(FI);
        const PathTable &Got = RT.table(F), &Ref = Want.table(F);
        EXPECT_EQ(RT.collectCounts(F), Want.collectCounts(F))
            << Name << " " << Opts.Name << " f" << FI;
        EXPECT_EQ(Got.lostCount(), Ref.lostCount()) << Name << " f" << FI;
        EXPECT_EQ(Got.coldCheckedCount(), Ref.coldCheckedCount())
            << Name << " f" << FI;
        EXPECT_EQ(Got.invalidCount(), Ref.invalidCount())
            << Name << " f" << FI;
      }
      EXPECT_EQ(Timing.totalCost() != 0, Opts.TraceTimestamps)
          << Name << " " << Opts.Name;

      Interpreter I(B.Expanded, IO);
      TraceRecorder Rec(DefaultTraceChunkBytes, Opts.TraceTimestamps);
      I.setTraceRecorder(&Rec);
      RunResult Hand = I.run();
      EXPECT_EQ(Res.Cost, Hand.Cost) << Name << " " << Opts.Name;
      EXPECT_EQ(Res.DynInstrs, Hand.DynInstrs) << Name << " " << Opts.Name;
      EXPECT_NE(Res.Cost, CounterRes.Cost) << Name << " " << Opts.Name;
    }
  }
}

/// trace.timing.* are counters summed over flushes: a report covering
/// two timed collect() runs holds the sum of both profiles' values, not
/// the last one's.
TEST(Collect, FlushedTimingMetricsSumOverRuns) {
  PathTimingProfile Timings[2];
  const char *Names[2] = {"vpr", "crafty"};
  for (int X = 0; X < 2; ++X) {
    PreparedBenchmark B = prepare(*findBenchmark(Names[X]));
    InterpOptions IO;
    IO.Costs = B.Costs;
    InstrumentationResult IR =
        instrumentModule(B.Expanded, B.EP, ProfilerOptions::traceTimed());
    ProfileRuntime RT = IR.makeRuntime();
    RunResult Res;
    std::string Err;
    ASSERT_TRUE(collect(B.Expanded, IR, IO, RT, Res, Err, &Timings[X]))
        << Names[X] << ": " << Err;
    Timings[X].finishPhases();
  }
  const PathTimingProfile &A = Timings[0], &B = Timings[1];
  ASSERT_NE(A.totalCost(), B.totalCost());
  obs::Registry::instance().resetForTesting();
  A.flushMetrics();
  B.flushMetrics();
  obs::MetricsSnapshot Snap = obs::snapshot();
  EXPECT_EQ(Snap.counter("trace.timing.paths"),
            A.paths().size() + B.paths().size());
  EXPECT_EQ(Snap.counter("trace.timing.executions"),
            A.executions() + B.executions());
  EXPECT_EQ(Snap.counter("trace.timing.total_cost"),
            A.totalCost() + B.totalCost());
  EXPECT_EQ(Snap.counter("trace.timing.attributed_cost"),
            A.attributedCost() + B.attributedCost());
  EXPECT_EQ(Snap.counter("trace.timing.unattributed_cost"),
            A.unattributedCost() + B.unattributedCost());
  EXPECT_EQ(Snap.counter("trace.timing.windows"),
            A.windows().size() + B.windows().size());
  EXPECT_EQ(Snap.counter("trace.timing.phase_boundaries"),
            A.phaseBoundaries().size() + B.phaseBoundaries().size());
}

/// A run that exhausts its fuel fails collect() with a message under
/// either backend; it never exits.
TEST(Collect, HungRunReturnsFalseWithError) {
  PreparedBenchmark B = prepare(*findBenchmark("vpr"));
  InterpOptions IO;
  IO.Costs = B.Costs;
  IO.Fuel = 1000;
  for (const ProfilerOptions &Opts :
       {ProfilerOptions::ppp(), ProfilerOptions::trace(),
        ProfilerOptions::traceTimed()}) {
    InstrumentationResult IR = instrumentModule(B.Expanded, B.EP, Opts);
    ProfileRuntime RT = IR.makeRuntime();
    RunResult Res;
    std::string Err;
    EXPECT_FALSE(collect(B.Expanded, IR, IO, RT, Res, Err)) << Opts.Name;
    EXPECT_TRUE(Res.FuelExhausted) << Opts.Name;
    EXPECT_NE(Err.find("hung"), std::string::npos) << Opts.Name << ": " << Err;
  }
}

} // namespace
